"""Tests for the command-line interface: outputs, formats, and exit codes."""

import ast
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
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


def _warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning:")]


_DELTA_85_18_9 = "3016773596586712638984949358180496"
_DELTA_81_17_8 = "648429130301955511785243555928"
_PSI, _RES, _T1 = Method.PSI_PRODUCT, Method.RESIDUE, Method.THEOREM1

# Each warning case: argv; the kernels each row runs, checker last; the n a
# warning names, or None when the request must not warn; the delta a single
# value prints.


def _check_warning_cases(capsys, monkeypatch, cases):
    # A request warns at most once, before its first kernel, naming n and
    # exactly the kernels it runs.  The fakes keep the test fast: a single
    # value gets the real psi-product's delta, a table row 1.  With the closed
    # forms off, every row of a table runs the same kernels.
    singles = {degree_mod.validate_triple(*map(int, argv[1:4]))
               for argv, *_, value in cases if value is not None}
    known = {t: degree_mod.delta_psi_product(t).delta for t in singles}
    ran, started = [], []

    def fake(method):
        # a table's psi-product rows also pass the dict they share
        def kernel(t, *args):
            ran.append(method)
            started.append(_warnings(capsys.readouterr().err))
            return DegreeResult(t, known.get(t, 1), method)

        return kernel

    for name, method in (("delta_psi_product", _PSI), ("delta_residue", _RES),
                         ("delta_theorem1", _T1)):
        monkeypatch.setattr(degree_mod, name, fake(method))
    monkeypatch.setattr(degree_mod, "delta_closed", lambda t: None)
    for argv, kernels, n_text, value in cases:
        ran.clear()
        started.clear()
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        rows = 1 if argv[0] == "value" else len(degree_mod.valid_triples(int(argv[1])))
        assert ran == list(kernels) * rows, argv
        warned = [line for lines in started for line in lines] + _warnings(captured.err)
        assert started[0] == warned, argv
        if n_text is None:
            assert warned == [], argv
        else:
            assert len(warned) == 1 and n_text in warned[0] and "seconds" in warned[0], argv
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
        (["value", "3", "11", "9", "--method", "theorem1"], (_T1,), "n=11", "220"),
        (["value", "3", "10", "8", "--method", "theorem1"], (_T1,), None, "165"),
        (["value", "6", "10", "7", "--method", "theorem1"], (_T1,), None, "2640"),
        (["value", "27", "10", "5", "--method", "theorem1"], (_T1,), None, "27161730960"),
        (["value", "27", "10", "5", "--check"], (_PSI, _RES), None, "27161730960"),
        (["table", "10", "--method", "theorem1"], (_T1,), "n=10", None),
        (["table", "9", "--method", "theorem1"], (_T1,), None, None),
    ])


def test_residue_warns_up_front_from_its_cost(capsys, monkeypatch):
    # the residue sum runs over C(n, r) subsets: from the multiply-add count
    # of (81, 17, 8) on it warns, as the requested method or as the checker,
    # however large the n of a cheaper triple
    _check_warning_cases(capsys, monkeypatch, [
        (["value", "85", "18", "9", "--method", "residue"], (_RES,), "n=18", _DELTA_85_18_9),
        (["value", "85", "18", "9", "--check"], (_PSI, _RES), "n=18", _DELTA_85_18_9),
        (["value", "81", "17", "8", "--check"], (_PSI, _RES), "n=17", _DELTA_81_17_8),
        (["value", "80", "16", "8", "--check"], (_PSI, _RES), None, None),
        (["value", "160", "18", "1", "--method", "residue"], (_RES,), None, None),
        (["table", "18", "--method", "residue"], (_RES,), "n=18", None),
    ])


def test_psi_product_warns_up_front_from_its_cost(capsys, monkeypatch):
    # a psi-product value can touch 2^n masks; a table's rows share one
    # sweep of them, so tables warn from n = 23.  A table that runs no
    # psi-product warns from its residue sums alone: table 16 is estimated
    # at about 23 minutes, table 11 at about 5 s
    _check_warning_cases(capsys, monkeypatch, [
        (["table", "23"], (_PSI,), "n=23", None),
        (["table", "22"], (_PSI,), None, None),
        (["table", "16"], (_PSI,), None, None),
        (["table", "16", "--method", "psi_product", "--format", "json"], (_PSI,), None, None),
        (["table", "15"], (_PSI,), None, None),
        (["value", "169", "25", "12"], (_PSI,), "n=25", None),
        (["value", "150", "24", "12", "--method", "psi_product"], (_PSI,), None, None),
        (["table", "16", "--method", "residue"], (_RES,), "n=16", None),
        (["table", "11", "--method", "residue"], (_RES,), None, None),
    ])


def test_checked_tables_warn_up_front(capsys, monkeypatch):
    # a checked table runs the psi-product and the residue sum on every row
    _check_warning_cases(capsys, monkeypatch, [
        (["table", "12", "--check"], (_PSI, _RES), "n=12", None),
        (["table", "11", "--check"], (_PSI, _RES), None, None),
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


def test_table_json_is_the_indented_dump():
    # the templated rows are json.dumps of the records, indent=2, byte for byte
    for n in range(2, 13):
        results = degree_mod.delta_table(n)
        expected = json.dumps([cli._record(result) for result in results], indent=2)
        assert cli._json_table(results) == expected, n
    # the float text of elapsed_ms, from zero and below a microsecond up
    t = degree_mod.validate_triple(40, 12, 6)
    for elapsed in (0.0, 1e-9, 0.0123456, 12.5, 1234.5678):
        results = [DegreeResult(t, 10**40 + 7, Method.PSI_PRODUCT, elapsed),
                   DegreeResult(t, 1, Method.DUALITY_REDUCED, elapsed / 3)]
        expected = json.dumps([cli._record(result) for result in results], indent=2)
        assert cli._json_table(results) == expected, elapsed


def test_table_csv_is_the_record_writer(capsys):
    # rows written from the results read as the records written field by field
    for n in range(2, 13):
        assert main(["table", str(n), "--format", "csv"]) == 0
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(cli.CSV_FIELDS)
        for rec in map(cli._record, degree_mod.delta_table(n)):
            writer.writerow([rec[field] for field in cli.CSV_FIELDS])
        assert capsys.readouterr().out == expected.getvalue(), n


def test_table_invalid_n(capsys):
    assert main(["table", "1"]) == 2


def _plus_one(result, wrong=True):
    return replace(result, delta=result.delta + 1) if wrong else result


@pytest.mark.parametrize("kernel, make_wrong", [
    # wrong only above half rank: each row is computed on its own triple, not
    # copied from its duality partner
    ("delta_residue", lambda real: lambda t, points=None: _plus_one(
        real(t, points), t.r > t.n - t.r)),
    # both rows of a closed-form pair evaluate the same formula, so a wrong
    # formula agrees with itself; each row must meet an independent psi-product
    ("_closed_pattern", lambda real: lambda m, n, r: (
        None if real(m, n, r) is None else real(m, n, r) + 1)),
    # a psi-product row and its partner's row are one sum with I and I^c
    # swapped, so a wrong kernel agrees with itself; the residue sum does not
    ("delta_psi_product", lambda real: lambda t, shared=None: _plus_one(real(t, shared))),
], ids=("residue", "closed_form", "psi_product"))
def test_table_check_catches_a_wrong_kernel(capsys, monkeypatch, kernel, make_wrong):
    monkeypatch.setattr(degree_mod, kernel, make_wrong(getattr(degree_mod, kernel)))
    assert main(["table", "5", "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "method disagreement" in captured.err


def test_table_duality_violation_prints_no_table(capsys, monkeypatch):
    # the psi-product checks every row of table 3, all closed forms; it is
    # wrong on the last row only, and the rows before it are not printed either
    last = degree_mod.valid_triples(3)[-1]
    psi_product = degree_mod.delta_psi_product
    monkeypatch.setattr(degree_mod, "delta_psi_product",
                        lambda t, shared=None: _plus_one(psi_product(t, shared), t == last))
    assert main(["table", "3", "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "method disagreement" in captured.err


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


def test_readme_command_lines_parse():
    # every command in the README's command-line block must parse, so that a
    # removed flag cannot stay documented; none of them is run
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sdpdeg ")
    ]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(cli._attach_lambda(argv))
        except SystemExit:
            raise AssertionError(f"README command does not parse: sdpdeg {shlex.join(argv)}")


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
    probe = (
        "import sys, sdpdeg.cli; "
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
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
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
