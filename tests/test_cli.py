"""Tests for the command-line interface: outputs, formats, and exit codes."""

import argparse
import ast
import csv
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest

import sdpdeg
import sdpdeg.cli as cli
import sdpdeg.degree as degree_mod
from sdpdeg.cli import main
from sdpdeg.degree import DegreeResult, Method


def _fields(line):
    return dict(part.split("=", 1) for part in line.split())


def test_value_basic(capsys):
    assert main(["value", "3", "4", "2"]) == 0
    out = _fields(capsys.readouterr().out.strip())
    assert out["delta"] == "10"
    assert out["m"] == "3" and out["k"] == "0" and out["l"] == "4"


def test_value_invalid_triple(capsys):
    assert main(["value", "2", "4", "2"]) == 2
    err = capsys.readouterr().err
    assert "3" in err  # names the violated lower bound


def test_value_residue_with_check(capsys):
    assert main(["value", "4", "4", "2", "--method", "residue", "--check"]) == 0
    out = _fields(capsys.readouterr().out.strip())
    assert out["delta"] == "30" and out["method"] == "residue"


def test_value_theorem1_with_check(capsys):
    assert main(["value", "2", "3", "2", "--method", "theorem1", "--check"]) == 0
    out = _fields(capsys.readouterr().out.strip())
    assert out["delta"] == "6" and out["method"] == "theorem1"


def test_value_custom_lambda(capsys):
    code = main(["value", "2", "3", "2", "--method", "residue", "--lambda", "2,5,11"])
    assert code == 0
    assert _fields(capsys.readouterr().out.strip())["delta"] == "6"
    # rationals parse too
    code = main(["value", "2", "3", "2", "--method", "residue", "--lambda", "1/2,3/2,4"])
    assert code == 0
    assert _fields(capsys.readouterr().out.strip())["delta"] == "6"
    # a negative first point, given separately or attached with '='
    for args in (["--lambda", "-3/2,1,2"], ["--lambda=-3/2,1,2"]):
        code = main(["value", "2", "3", "2", "--method", "residue", *args])
        assert code == 0
        assert _fields(capsys.readouterr().out.strip())["delta"] == "6"


def test_value_lambda_prefix_takes_a_negative_value(capsys):
    # argparse accepts any unambiguous prefix of --lambda, so each must take a
    # separate value starting with '-' just as --lambda does
    for flag in ("--l", "--lam"):
        argv = ["value", "3", "4", "2", "--method", "residue", flag, "-1,-2,-3,-4"]
        assert main(argv) == 0, flag
        assert _fields(capsys.readouterr().out.strip())["delta"] == "10", flag


def test_value_lambda_validation(capsys):
    assert main(["value", "2", "3", "2", "--lambda", "1,2"]) == 2
    capsys.readouterr()
    assert main(["value", "2", "3", "2", "--method", "residue", "--lambda", "1,1,2"]) == 2
    capsys.readouterr()
    for method in degree_mod.METHODS:
        argv = ["value", "3", "4", "2", "--method", method, "--lambda", "1,1,2,2"]
        assert main(argv) == 2, method
        assert "distinct" in capsys.readouterr().err, method
    # an empty list is rejected, not read as "use the default points"
    assert main(["value", "2", "3", "2", "--method", "residue", "--lambda="]) == 2
    assert "sample points" in capsys.readouterr().err


def test_value_auto_ignores_the_sample_points(capsys):
    # auto checks --lambda but runs the psi-product, which takes no points
    assert main(["value", "6", "5", "3", "--lambda=1,2,3,4,5"]) == 0
    out = _fields(capsys.readouterr().out.strip())
    assert (out["delta"], out["method"]) == ("290", "psi_product")


def test_value_accepts_every_method_name(capsys):
    for method in degree_mod.METHODS:
        assert main(["value", "3", "4", "2", "--method", method]) == 0, method
        assert _fields(capsys.readouterr().out.strip())["delta"] == "10"


def test_value_closed_not_applicable(capsys):
    assert main(["value", "6", "5", "3", "--method", "closed"]) == 2
    assert "closed" in capsys.readouterr().err


def test_value_cross_check_disagreement_exits_3(capsys, monkeypatch):
    t = degree_mod.validate_triple(3, 4, 2)
    fake = DegreeResult(t, 11, Method.RESIDUE, 0.0)
    monkeypatch.setattr(degree_mod, "delta_residue", lambda *a, **k: fake)
    assert main(["value", "3", "4", "2", "--method", "theorem1", "--check"]) == 3
    assert "disagreement" in capsys.readouterr().err


def test_integrality_failure_exits_1_with_one_error_line(capsys, monkeypatch):
    # A closed form faked to give 0 at r = n - 1 fails the integrality guard,
    # in a value and while a table plans its rows.
    real = degree_mod._closed_pattern
    monkeypatch.setattr(
        degree_mod, "_closed_pattern", lambda m, n, r: 0 if r == n - 1 else real(m, n, r)
    )
    for argv, triple, label in (
        (["value", "3", "4", "3"], "m=3, n=4, r=3", "closed_form"),
        (["table", "3"], "m=5, n=3, r=1", "duality_reduced"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {label} on PatakiTriple({triple}): non-positive value 0\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["value", "3", "4", "2"], 0,
     r"m=3 n=4 r=2 k=0 l=4 delta=10 method=closed_form elapsed_ms=[0-9.e-]+\n", ""),
    (["value", "1", "4", "2"], 2, "",
     re.escape("error: m=1 below the lower Pataki bound 3 for (n=4, r=2)\n")),
    (["value", "3", "4"], 2, "",
     r"usage: sdpdeg value .*\nsdpdeg value: error: the following arguments are required: r\n"),
], ids=("ok", "invalid-triple", "usage"))
def test_interpreter_exits_with_the_code_of_main(argv, code, out, err):
    # python -m sdpdeg.cli, exit path included; out and err are patterns
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sdpdeg.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == code
    assert re.fullmatch(out, done.stdout), done.stdout
    assert re.fullmatch(err, done.stderr, re.DOTALL), done.stderr


def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr():
    # table 16's JSON is 112 KB, past a 64 KB pipe buffer, so writing the rest
    # after the reader has closed the pipe fails every time
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "sdpdeg.cli", "table", "16", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.filterwarnings("ignore:'sdpdeg.cli' found in sys.modules:RuntimeWarning")
def test_main_module_exits_3_on_a_disagreement(capsys, monkeypatch):
    # a closed form faked to give 1 at r = n - 1 disagrees with its check
    real = degree_mod._closed_pattern
    monkeypatch.setattr(
        degree_mod, "_closed_pattern", lambda m, n, r: 1 if r == n - 1 else real(m, n, r)
    )
    monkeypatch.setattr(sys, "argv", ["sdpdeg", "value", "3", "4", "3", "--check"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("sdpdeg.cli", run_name="__main__")
    assert exited.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: method disagreement")


def _warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning:")]


_DELTA_85_18_9 = "3016773596586712638984949358180496"
_DELTA_81_17_8 = "648429130301955511785243555928"
_PSI, _RES, _T1 = Method.PSI_PRODUCT, Method.RESIDUE, Method.THEOREM1

# Each warning case: argv; the kernels each row runs, checker last; the full
# text of its warning, or None when the request must not warn; the delta a
# single value prints.


def _table_calls(n, kernels):
    # The kernel calls of a table that runs `kernels` on every row, in order:
    # the psi sweep at the first psi-product row, the residue walk of each
    # rank r <= n - r at the rank's first row, which rank n - r reads too,
    # theorem1 on every row.
    calls = []
    for t in degree_mod.valid_triples(n):
        for method in kernels:
            if method is _T1:
                calls.append("delta_theorem1")
            elif method is _PSI and "_psi_sweep" not in calls:
                calls.append("_psi_sweep")
            elif method is _RES and t.k == 0 and t.r <= n - t.r:
                calls.append("_residue_walk")
    return calls


def _check_warning_cases(capsys, monkeypatch, cases):
    # A request warns at most once, before its first kernel, naming n and
    # exactly the kernels it runs.  The fakes keep the test fast: a single
    # value gets the real psi-product's delta, a table row that of
    # `checksum_row`.  With the closed forms off, every row of a table runs
    # the same kernels, and the table makes exactly the calls of `_table_calls`.
    singles = {degree_mod.validate_triple(*map(int, argv[1:4]))
               for argv, *_, value in cases if value is not None}
    known = {t: degree_mod.delta_psi_product(t).delta for t in singles}
    real = {}  # `known` while a value request runs, empty while a table does
    ran, started = [], []

    def checksum_row(n, r, ell):
        # 1, but C(n//2, r//2) at ell = 0 of a rank r <= n - r and at k = 0 of
        # rank n - r when r(n - r) is even: every rank passes its checksum
        slack = r * (n - r)
        edge = ell if 2 * r <= n else slack - ell
        return comb(n // 2, r // 2) if edge == 0 and slack % 2 == 0 else 1

    def row(t):
        return real.get(t) or checksum_row(t.n, t.r, t.ell)

    def sweep(n):
        # the sums from which every psi-product row reads `checksum_row`
        sums = [[1] * (comb(n, 2) + 1) for _ in range(n + 1)]
        for r in range(1, n):
            for ell in range(r * (n - r) + 1):
                sums[r][ell + comb(r, 2)] = checksum_row(n, r, ell)
        return sums

    def fake(name, value):
        def kernel(*args):
            ran.append(name)
            started.append(_warnings(capsys.readouterr().err))
            return value(*args)

        return kernel

    def walk(pts, r, ells):
        # the numerators from which every residue row of ranks r and n - r
        # reads `checksum_row`
        n = len(pts)
        whole = prod(pts[i] - pts[j] for j in range(n) for i in range(j))
        slack = r * (n - r)
        return [(-1) ** (slack - ell + comb(r, 2)) * whole * checksum_row(n, r, ell)
                for ell in range(slack + 1)]

    value_kernels = {_PSI: "delta_psi_product", _RES: "delta_residue", _T1: "delta_theorem1"}
    for name, value in (
        ("delta_psi_product", lambda t: DegreeResult(t, row(t), _PSI)),
        ("delta_residue", lambda t, points=None: DegreeResult(t, row(t), _RES)),
        ("delta_theorem1", lambda t: DegreeResult(t, row(t), _T1)),
        ("_psi_sweep", sweep),
        ("_residue_walk", walk),
    ):
        monkeypatch.setattr(degree_mod, name, fake(name, value))
    monkeypatch.setattr(degree_mod, "_closed_pattern", lambda m, n, r: None)
    for argv, kernels, text, value in cases:
        ran.clear()
        started.clear()
        real = known if argv[0] == "value" else {}
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        if argv[0] == "value":
            assert ran == [value_kernels[method] for method in kernels], argv
        else:
            assert ran == _table_calls(int(argv[1]), kernels), argv
        warned = [line for lines in started for line in lines] + _warnings(captured.err)
        assert started[0] == warned, argv
        if text is None:
            assert warned == [], argv
        else:
            assert warned == [f"warning: {text}"], argv
            for word, method in (("psi-product", _PSI), ("residue sum", _RES), ("theorem1", _T1)):
                assert (word in warned[0]) == (method in kernels), (argv, warned)
        if value is not None:
            assert _fields(captured.out.strip())["delta"] == value, argv


def test_theorem1_warns_up_front_from_its_h_blocks(capsys, monkeypatch):
    # theorem1 is estimated from the DP pushes of its two h blocks, which
    # peak where one block carries all r(n-r) degrees: (3, 11, 9) warns,
    # the n = 10 edges do not, and a table warns once however many rows run
    # it, from table 10 on.  The checker of a psi-product value is the
    # residue sum, so --check runs no theorem1.
    _check_warning_cases(capsys, monkeypatch, [
        (["value", "3", "11", "9", "--method", "theorem1"], (_T1,),
         "theorem1 at n=11 is estimated to run for 56 seconds", "220"),
        (["value", "3", "10", "8", "--method", "theorem1"], (_T1,), None, "165"),
        (["value", "6", "10", "7", "--method", "theorem1"], (_T1,), None, "2640"),
        (["value", "27", "10", "5", "--method", "theorem1"], (_T1,), None, "27161730960"),
        (["value", "27", "10", "5", "--check"], (_PSI, _RES), None, "27161730960"),
        (["table", "10", "--method", "theorem1"], (_T1,),
         "theorem1 at n=10 is estimated to run for 117 seconds", None),
        (["table", "9", "--method", "theorem1"], (_T1,), None, None),
        (["table", "9", "--method", "theorem1", "--check"], (_T1, _RES), None, None),
    ])


def test_residue_warns_up_front_from_its_cost(capsys, monkeypatch):
    # the residue sum walks the C(n, r) subsets: from the multiply-add count
    # of its walk, (143, 20, 7) --check is the first checked value to warn,
    # at n = 20, as the requested method or as the checker, while the
    # costliest n = 19 value stays under; narrow rows are priced by their
    # own caps, however large their n
    _check_warning_cases(capsys, monkeypatch, [
        (["value", "165", "20", "9", "--method", "residue"], (_RES,),
         "the residue sum at n=20 is estimated to run for 24 seconds", None),
        (["value", "165", "20", "9", "--check"], (_PSI, _RES),
         "the psi-product checked by the residue sum at n=20 "
         "is estimated to run for 24 seconds", None),
        (["value", "143", "20", "7", "--check"], (_PSI, _RES),
         "the psi-product checked by the residue sum at n=20 "
         "is estimated to run for 11 seconds", None),
        (["value", "145", "19", "9", "--check"], (_PSI, _RES), None, None),
        (["value", "85", "18", "9", "--check"], (_PSI, _RES), None, _DELTA_85_18_9),
        (["value", "81", "17", "8", "--check"], (_PSI, _RES), None, _DELTA_81_17_8),
        (["value", "9", "40", "37", "--method", "residue"], (_RES,),
         "the residue sum at n=40 is estimated to run for 22 seconds", None),
        (["value", "6", "30", "28", "--method", "residue"], (_RES,), None, None),
        (["value", "160", "18", "1", "--method", "residue"], (_RES,), None, None),
        (["table", "18", "--method", "residue"], (_RES,),
         "the residue sum at n=18 is estimated to run for 27 seconds", None),
    ])


def test_psi_product_warns_up_front_from_its_cost(capsys, monkeypatch):
    # a psi-product value can touch 2^n masks; a table's rows share one
    # sweep of them, so tables warn from n = 23.  A table that runs no
    # psi-product warns from its residue walks alone, one per pair of ranks
    # r and n - r: table 18 is estimated at about 28 s, table 17 at about
    # 10 s
    _check_warning_cases(capsys, monkeypatch, [
        (["table", "23"], (_PSI,),
         "the psi-product at n=23 is estimated to run for 19 seconds", None),
        (["table", "22"], (_PSI,), None, None),
        (["table", "16"], (_PSI,), None, None),
        (["table", "16", "--method", "psi_product", "--format", "json"], (_PSI,), None, None),
        (["table", "15"], (_PSI,), None, None),
        (["value", "169", "25", "12"], (_PSI,),
         "the psi-product at n=25 is estimated to run for 15 seconds", None),
        (["value", "150", "24", "12", "--method", "psi_product"], (_PSI,), None, None),
        (["table", "18", "--method", "residue"], (_RES,),
         "the residue sum at n=18 is estimated to run for 27 seconds", None),
        (["table", "17", "--method", "residue"], (_RES,), None, None),
    ])


def test_checked_tables_warn_up_front(capsys, monkeypatch):
    # a checked table runs the psi-product and the residue sum on every row,
    # the residue sum as one walk per pair of ranks r and n - r: table 18
    # --check is estimated at about 28 s, table 17 --check at about 10 s
    _check_warning_cases(capsys, monkeypatch, [
        (["table", "18", "--check"], (_PSI, _RES),
         "the psi-product checked by the residue sum at n=18 "
         "is estimated to run for 28 seconds", None),
        (["table", "18", "--method", "residue", "--check"], (_RES, _PSI),
         "the residue sum checked by the psi-product at n=18 "
         "is estimated to run for 28 seconds", None),
        (["table", "17", "--check"], (_PSI, _RES), None, None),
        (["table", "17", "--method", "psi_product", "--check"], (_PSI, _RES), None, None),
        (["table", "17", "--method", "residue", "--check"], (_RES, _PSI), None, None),
        (["table", "16", "--check"], (_PSI, _RES), None, None),
        (["table", "9", "--method", "residue", "--check"], (_RES, _PSI), None, None),
    ])


def test_check_never_runs_theorem1_unless_requested(capsys, monkeypatch):
    def no_theorem1(t):
        raise AssertionError(f"theorem1 ran on {t}")

    monkeypatch.setattr(degree_mod, "delta_theorem1", no_theorem1)
    runs = [
        (triple, method)
        for triple in (("6", "10", "7"), ("3", "10", "8"), ("27", "10", "5"))
        for method in ("auto", "residue", "psi_product")
    ] + [(("3", "10", "8"), "closed")]
    for triple, method in runs:
        assert main(["value", *triple, "--method", method, "--check"]) == 0, (triple, method)
        assert _warnings(capsys.readouterr().err) == [], (triple, method)


def test_value_check_feeds_the_sample_points_to_the_residue_check(capsys, monkeypatch):
    residue = degree_mod.delta_residue
    seen = []

    def spy(t, points=None):
        seen.append(points)
        return residue(t, points)

    monkeypatch.setattr(degree_mod, "delta_residue", spy)
    assert main(["value", "6", "5", "3", "--check", "--lambda=-3/2,1,2,7,11"]) == 0
    out = _fields(capsys.readouterr().out.strip())
    assert (out["delta"], out["method"]) == ("290", "psi_product")
    assert seen == [(Fraction(-3, 2), 1, 2, 7, 11)]


def test_table_csv(capsys):
    assert main(["table", "3"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "r", "k", "l", "delta", "method"]
    data = {(row[0], row[2]): row[5] for row in rows[1:]}
    assert data[("2", "2")] == "6"  # (m=2, r=2)
    assert data[("3", "1")] == "4"  # (m=3, r=1)
    keys = [(int(row[2]), int(row[0])) for row in rows[1:]]
    assert keys == sorted(keys)  # ordered by (r, m)


def test_table_check_confirms_every_row(capsys):
    # every row meets its second opinion on its own triple, so a table that
    # passes also confirms duality row by row
    assert main(["table", "4", "--check"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 14  # header + 13 triples


def test_table_check_prints_the_unchecked_table(capsys):
    for n in range(2, 8):
        assert main(["table", str(n)]) == 0
        plain = capsys.readouterr()
        assert main(["table", str(n), "--check"]) == 0
        checked = capsys.readouterr()
        assert checked.out == plain.out and checked.err == "", n


def test_table_json_round_trips_csv(capsys):
    assert main(["table", "4", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 13
    for rec in records:
        assert set(rec) == {"m", "n", "r", "k", "l", "delta", "method", "elapsed_ms"}
        assert isinstance(rec["delta"], str)
        assert int(rec["delta"]) >= 1
    assert main(["table", "4", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    json_data = [
        {key: str(rec[key]) for key in ("m", "n", "r", "k", "l", "delta", "method")}
        for rec in records
    ]
    assert rows == json_data


def _expected_record(result):
    # one output row, read off the result's own attributes
    t = result.triple
    return {
        "m": t.m, "n": t.n, "r": t.r, "k": t.k, "l": t.ell, "delta": str(result.delta),
        "method": result.method.value, "elapsed_ms": round(result.elapsed * 1000, 3),
    }


def test_table_json_is_the_indented_dump():
    # the templated rows are json.dumps of the records, indent=2, byte for byte
    for n in range(2, 13):
        results = degree_mod.delta_table(n)
        expected = json.dumps([_expected_record(result) for result in results], indent=2)
        assert cli._json_table(results) == expected, n
    # the float text of elapsed_ms, from zero and below a microsecond up
    t = degree_mod.validate_triple(40, 12, 6)
    for elapsed in (0.0, 1e-9, 0.0123456, 12.5, 1234.5678):
        results = [DegreeResult(t, 10**40 + 7, Method.PSI_PRODUCT, elapsed),
                   DegreeResult(t, 1, Method.DUALITY_REDUCED, elapsed / 3)]
        expected = json.dumps([_expected_record(result) for result in results], indent=2)
        assert cli._json_table(results) == expected, elapsed


def test_table_csv_is_the_record_writer(capsys):
    # rows written from the results read as the records written field by
    # field, every field but elapsed_ms
    fields = ("m", "n", "r", "k", "l", "delta", "method")
    for n in range(2, 13):
        assert main(["table", str(n), "--format", "csv"]) == 0
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(fields)
        for rec in map(_expected_record, degree_mod.delta_table(n)):
            writer.writerow([rec[field] for field in fields])
        assert capsys.readouterr().out == expected.getvalue(), n


def test_table_invalid_n(capsys):
    assert main(["table", "1"]) == 2


@pytest.mark.parametrize("error", [OverflowError, MemoryError])
def test_table_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch, error):
    # a psi sweep that cannot be allocated ends the request with exit 2 and
    # one error line, and prints no table
    def sweep(n):
        raise error("cannot allocate")

    monkeypatch.setattr(degree_mod, "_psi_sweep", sweep)
    assert main(["table", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the request does not fit in memory ({error.__name__})\n"


def test_table_64_does_not_fit_in_memory(capsys):
    # its sweep asks for a list of 2^63 entries, past any index: it warns
    # first, from its estimate, then reports the error
    assert main(["table", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["warning", "error"]
    assert lines[1] == "error: the request does not fit in memory (OverflowError)"


def _plus_one_at(sums, at):
    # the sums of a psi sweep, each entry that `at(r, weight)` selects plus one
    return [[s + at(r, w) for w, s in enumerate(row)] for r, row in enumerate(sums)]


@pytest.mark.parametrize("kernel, make_wrong", [
    # a table walks only the ranks r <= n - r, and rank n - r reads the walk
    # of rank r reversed: a walk wrong at its middle entry alone gives one
    # wrong row of each rank of the pair, neither of them a closed form
    ("_residue_walk", lambda real: lambda pts, r, ells: [
        s * 2 if 2 * ell == len(ells) - 1 else s for ell, s in enumerate(real(pts, r, ells))]),
    # both rows of a closed-form pair evaluate the same formula, so a wrong
    # formula agrees with itself; each row must meet an independent psi-product
    ("_closed_pattern", lambda real: lambda m, n, r: (
        None if real(m, n, r) is None else real(m, n, r) + 1)),
    # a psi-product row and its partner's row are one sum with I and I^c
    # swapped, so a wrong kernel agrees with itself; the residue sum does not
    ("_psi_sweep", lambda real: lambda n: _plus_one_at(real(n), lambda r, w: 1)),
], ids=("residue", "closed_form", "psi_product"))
def test_table_check_catches_a_wrong_kernel(capsys, monkeypatch, kernel, make_wrong):
    monkeypatch.setattr(degree_mod, kernel, make_wrong(getattr(degree_mod, kernel)))
    assert main(["table", "5", "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "method disagreement" in captured.err


def test_table_rank_checksum_catches_a_wrong_row(capsys, monkeypatch):
    # the psi-product row at ell = 3 of rank 2 at n = 6, not a closed form,
    # plus one: unchecked, no route disagrees, but the rank's alternating sum
    # misses C(3, 1) = 3, and the table exits 1 with no row printed
    sweep = degree_mod._psi_sweep
    monkeypatch.setattr(degree_mod, "_psi_sweep", lambda n: _plus_one_at(
        sweep(n), lambda r, w: (r, w) == (2, 3 + comb(2, 2))))
    expected = "rank checksum of table n=6 fails at r=2: sum of (-1)^l delta is 2, expected 3"
    with pytest.raises(degree_mod.ConsistencyError) as err:
        degree_mod.delta_table(6)
    assert str(err.value) == expected
    assert main(["table", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


def test_table_duality_violation_prints_no_table(capsys, monkeypatch):
    # the psi-product checks every row of table 3, all closed forms; it is
    # wrong on the last row only, and the rows before it are not printed either
    last = degree_mod.valid_triples(3)[-1]
    sweep = degree_mod._psi_sweep
    monkeypatch.setattr(degree_mod, "_psi_sweep", lambda n: _plus_one_at(
        sweep(n), lambda r, w: (r, w) == (last.r, last.ell + comb(last.r, 2))))
    assert main(["table", "3", "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "method disagreement" in captured.err


def _stable_stderr(text):
    # argparse wraps a usage error's usage lines to the terminal width, and
    # Python releases differ in how an invalid choice quotes the choices: keep
    # the error line, unquoted
    return text.splitlines()[-1].replace("'", "") if text.startswith("usage:") else text


def _transcript_generator():
    return runpy.run_path(str(Path(__file__).with_name("data") / "make_cli_transcript.py"))


def test_cli_transcript_replays():
    # every command line of the committed transcript, run in process, exits
    # with the recorded code and writes the recorded standard error and the
    # recorded standard output, byte for byte with elapsed_ms masked
    generator = _transcript_generator()
    transcript = json.loads(generator["TRANSCRIPT"].read_text())
    assert list(transcript) == generator["COMMANDS"]
    changed = []
    for command, expected in transcript.items():
        got = generator["record"](command)
        got["stderr"], expected["stderr"] = map(_stable_stderr, (got["stderr"], expected["stderr"]))
        if got != expected:
            changed.append(command)
    assert changed == []


def test_cli_imports_only_the_delta_api_and_methods():
    # cost policy (estimates, budgets, warnings) lives in degree: the CLI
    # takes nothing from it beyond the public API and the method names
    source = Path(cli.__file__).read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "degree" and node.level == 1
        for alias in node.names
    }
    assert "delta_table" in imported
    assert imported <= set(degree_mod.__all__) | {"METHODS"}, imported - set(degree_mod.__all__)


def _readme_commands():
    # the argv of each command in the README's command-line block
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sdpdeg ")
    ]


def test_readme_command_lines_parse():
    # every command in the README's command-line block must parse, so that a
    # removed flag cannot stay documented; none of them is run
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser(cli.SUBCOMMANDS)
    for argv in commands:
        try:
            parser.parse_args(cli._attach_lambda(argv))
        except SystemExit:
            raise AssertionError(f"README command does not parse: sdpdeg {shlex.join(argv)}")


def test_lazy_parser_behaves_as_the_full_parser(monkeypatch):
    # a command line builds only the arguments of the subcommands it names;
    # help, usage errors and results are those of the parser with every
    # argument, whichever token names the subcommand, or none does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    record = _transcript_generator()["record"]
    commands = [
        "-h", "--help", "value -h", "table --help", "verify -h", "-h value",
        "", "bogus", "bogus table", "tab 4",
        "table 5 extra", "--check table 5", "-- table 4", "table -- 4", "--", "-- -h",
        "value 2 3 2 --method residue --lambda -1/2,1,2",
        "value 2 3 2 --method residue --l -1/2,1,2",
    ] + [shlex.join(argv) for argv in _readme_commands()]
    lazy = [record(command) for command in commands]
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser(cli.SUBCOMMANDS))
    for command, got in zip(commands, lazy):
        assert got == record(command), command
    # every help exits 0, every usage error exits 2
    assert [got["exit"] for got in lazy[:12]] == [0] * 6 + [2] * 6


def test_help_lists_each_subcommands_options(capsys):
    for command, option in (("value", "--lambda"), ("table", "--format"), ("verify", "--max-n")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert option in capsys.readouterr().out, command


def test_parser_holds_only_the_named_subcommands_arguments(monkeypatch):
    # every subcommand is registered, with its help, but a request builds only
    # the subcommand it names: any other holds no action, not even -h; and no
    # build formats a help text (add_subparsers formats a usage line to derive
    # its prog unless it is given one)
    formatted = []
    format_help = argparse.HelpFormatter.format_help
    monkeypatch.setattr(
        argparse.HelpFormatter, "format_help", lambda self: formatted.append(self) or format_help(self)
    )

    def subparsers(parser):
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli.SUBCOMMANDS) == ["value", "table", "verify"]
        return sub.choices

    def actions(parser):
        return {name: len(p._actions) for name, p in subparsers(parser).items()}

    def options(parser):
        return {name for p in subparsers(parser).values() for name in p._option_string_actions}

    table = cli.build_parser(["table", "9", "--format", "json"])
    assert {"--format", "--method", "--check"} <= options(table)
    assert actions(table) == {"value": 0, "table": 5, "verify": 0}
    assert actions(cli.build_parser(["value", "10", "6", "3", "--check"])) == {
        "value": 7, "table": 0, "verify": 0,
    }
    full = cli.build_parser(cli.SUBCOMMANDS)
    assert {"--lambda", "--max-n", "--format"} <= options(full)
    assert actions(full) == {"value": 7, "table": 5, "verify": 4}
    assert formatted == []


def test_a_leading_double_dash_before_the_subcommand_is_dropped(capsys):
    # argparse before 3.13 reads a `--` before the subcommand as its name
    assert main(["table", "4"]) == 0
    expected = capsys.readouterr()
    assert main(["--", "table", "4"]) == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith("m,n,r,k,l,delta,method\r\n") and expected.err == ""


def test_verify_suites(capsys):
    assert main(["verify", "--suite", "lemma21", "--seed", "7"]) == 0
    assert "lemma21: 100/100 passed" in capsys.readouterr().out
    assert main(["verify", "--suite", "identities"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "cross-methods", "--max-n", "3"]) == 0
    assert "cross-methods" in capsys.readouterr().out


def test_verify_all_default(capsys):
    assert main(["verify", "--seed", "1", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("lemma21", "prop22", "identities", "cross-methods"):
        assert name in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    import sdpdeg.checks as verify_mod

    def broken(seed=0, max_n=4):
        return verify_mod.SuiteReport(1, 1, "inputs: ...; values: 1 vs 2")

    monkeypatch.setitem(verify_mod.SUITES, "identities", broken)
    assert main(["verify", "--suite", "identities"]) == 1
    captured = capsys.readouterr()
    assert "1/2 passed" in captured.out
    assert "counterexample" in captured.err


def test_verify_cross_methods_compares_the_psi_product(capsys, monkeypatch):
    import sdpdeg.checks as checks

    real = checks.delta_psi_product

    def plus_one(t):
        result = real(t)
        return DegreeResult(t, result.delta + 1, result.method)

    monkeypatch.setattr(checks, "delta_psi_product", plus_one)
    assert main(["verify", "--suite", "cross-methods", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert "cross-methods: 0/" in captured.out
    assert "psi-product" in captured.err


def test_verify_reports_a_wrong_schur_polynomial(capsys, monkeypatch):
    # a wrong s_I must fail the identities suite, not crash the CLI
    import sdpdeg.checks as checks

    real = checks.schur_bialternant
    monkeypatch.setattr(checks, "schur_bialternant", lambda indices: real(indices) * 2)
    assert main(["verify", "--suite", "identities"]) == 1
    captured = capsys.readouterr()
    assert "identities: 93/102 passed" in captured.out
    assert "coefficient of x^(1,) from s_(1,)" in captured.err


def test_verify_rejects_max_n_outside_2_to_7(capsys):
    for max_n in ("1", "0", "-3", "8", "100"):
        argv = ["verify", "--suite", "cross-methods", "--max-n", max_n]
        assert main(argv) == 2, max_n
        captured = capsys.readouterr()
        assert captured.out == ""  # no suite ran
        assert captured.err.startswith("error:") and "--max-n" in captured.err


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    for name in ("lemma21", "prop22", "identities", "cross-methods"):
        assert name in err


def _fresh_python(probe, *paths):
    """Standard output of `probe` run by a new interpreter with `paths` importable."""
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / p) for p in paths))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout


def test_import_loads_only_the_production_path():
    # sdpdeg.theorem1 loads on the first theorem1 call, not for other requests
    probe = (
        "import contextlib, io, sys, sdpdeg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['table', '6', '--check'], ['value', '6', '5', '3', '--check']):\n"
        "        assert sdpdeg.cli.main(argv) == 0, argv\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('sdpdeg') or m == 'concurrent.futures')))"
    )
    assert _fresh_python(probe, "src").split() == [
        "sdpdeg", "sdpdeg.cli", "sdpdeg.degree", "sdpdeg.polynomial", "sdpdeg.schur",
    ]
    # polynomial and schur are registered but execute on first use, and no
    # method needs either, theorem1 included.  vars() would execute them;
    # the profiler sees every module body that runs.
    runs = [["value", "6", "5", "3", "--method", "theorem1"]]
    for method in ("auto", "theorem1", "residue", "psi_product"):
        runs += [["table", "6", "--method", method, "--check"],
                 ["value", "6", "5", "3", "--method", method, "--check"]]
    runs.append(["value", "3", "4", "3", "--method", "closed", "--check"])
    probe = (
        "import contextlib, io, sys, types\n"
        "ran = set()\n"
        "def profile(frame, event, arg):\n"
        "    if frame.f_code.co_name == '<module>':\n"
        "        ran.add(frame.f_globals['__name__'])\n"
        "sys.setprofile(profile)\n"
        "import sdpdeg.cli\n"
        "sys.setprofile(None)\n"
        "print(*sorted(m for m in ran if m.startswith('sdpdeg')))\n"
        "def executed():\n"
        "    return [type(sys.modules[f'sdpdeg.{m}']) is types.ModuleType\n"
        "            for m in ('polynomial', 'schur')]\n"
        "print(*executed())\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert sdpdeg.cli.main(argv) == 0, argv\n"
        "    print(*executed())\n"
    )
    lines = _fresh_python(probe, "src").splitlines()
    assert lines[0] == "sdpdeg sdpdeg.cli sdpdeg.degree"
    assert lines[1:] == ["False False"] * (1 + len(runs))


@pytest.mark.parametrize("module", ["polynomial", "schur", "checks"])
def test_each_module_imports_first(module):
    # a circular import shows up only when the module is the first one loaded
    probe = (
        f"import types, sdpdeg.{module} as module; vars(module); "
        "print(type(module) is types.ModuleType)"
    )
    assert _fresh_python(probe, "src").split() == ["True"]


def test_verify_loads_only_the_production_path_and_checks():
    probe = (
        "import sys, sdpdeg.cli; "
        "sdpdeg.cli.main(['verify', '--suite', 'identities']); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('sdpdeg'))))"
    )
    assert _fresh_python(probe, "src").splitlines()[-1].split() == [
        "sdpdeg", "sdpdeg.checks", "sdpdeg.cli", "sdpdeg.degree", "sdpdeg.polynomial",
        "sdpdeg.schur",
    ]


def test_benchmark_trace_sites_resolve_after_importing_the_cli():
    # The benchmark wraps each layer by (module, attribute path) after a fresh
    # import of sdpdeg.cli; print every layer that no longer resolves.
    probe = (
        "import functools, sys, sdpdeg.cli, tracing\n"
        "for name, (module, path) in tracing.LAYERS.items():\n"
        "    try:\n"
        "        functools.reduce(getattr, path.split('.'), sys.modules[module])\n"
        "    except (KeyError, AttributeError):\n"
        "        print(name)\n"
    )
    assert _fresh_python(probe, "src", "benchmarks").split() == []


def test_benchmark_tests_pass():
    # Their traced tiny runs drive the tracer through the lazily registered
    # modules.  A separate interpreter, because the benchmark re-imports sdpdeg.
    # src goes in front of the caller's PYTHONPATH, where pytest may be found.
    root = Path(cli.__file__).resolve().parents[2]
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join(filter(None, [str(root / "src"), inherited]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/test_bench.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_public_api_is_the_delta_api():
    public = [
        "ConsistencyError", "CrossCheckError", "DegreeResult", "InvalidTripleError",
        "Method", "PatakiBoundError", "PatakiTriple", "UnsupportedRankError",
        "delta", "delta_closed", "delta_psi_product", "delta_residue", "delta_table",
        "delta_theorem1", "duality_partner", "random_sample_points", "valid_triples",
        "validate_triple",
    ]
    assert len(public) == 18
    assert sorted(sdpdeg.__all__) == public
    for name in public:
        assert getattr(sdpdeg, name) is getattr(degree_mod, name), name
    # The reference generator imports from the package; read its names, do not run it.
    script = Path(cli.__file__).resolve().parents[2] / "benchmarks" / "make_reference.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "sdpdeg"
        for alias in node.names
    }
    assert imported and imported <= set(sdpdeg.__all__)
