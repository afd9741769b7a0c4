"""Command-line front end: single degree values, full Pataki tables, and the
self-verification suites.

Exit codes: 0 success, 1 a failed verify suite or a delta failing its
integrality check, 2 invalid triple or usage, 3 cross-check disagreement.
A RuntimeWarning the library issues (a value or a table estimated at 11 s
or more, before it starts) goes to standard error as one `warning: ...` line.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from fractions import Fraction
from typing import Sequence, Union

from .degree import (
    METHODS, ConsistencyError, CrossCheckError, DegreeResult, delta, delta_table, validate_triple,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3

FIELDS = ("m", "n", "r", "k", "l", "delta", "method", "elapsed_ms")


def _row(result: DegreeResult) -> tuple:
    """The values of FIELDS for one result, in order."""
    t = result.triple
    # delta as a decimal string: values outgrow 64-bit consumers at larger n;
    # _value_ is what the enum's value property returns, without the property.
    return (t.m, t.n, t.r, t.k, t.ell, str(result.delta), result.method._value_,
            round(result.elapsed * 1000, 3))


def _json_table(results: list[DegreeResult]) -> str:
    """json.dumps([dict(zip(FIELDS, _row(r))) for r in results], indent=2),
    byte for byte, for a nonempty list, written row by row from one template:
    every value is an int, a string that needs no escaping, or elapsed_ms, a
    float, which json writes as its repr."""
    rows = []
    for m, n, r, k, ell, value, method, elapsed_ms in map(_row, results):
        rows.append(
            f'  {{\n    "m": {m},\n    "n": {n},\n    "r": {r},\n    "k": {k},\n'
            f'    "l": {ell},\n    "delta": "{value}",\n    "method": "{method}",\n'
            f'    "elapsed_ms": {elapsed_ms!r}\n  }}'
        )
    return "[\n" + ",\n".join(rows) + "\n]"


def _parse_points(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse sample points {text!r}: {exc}") from None


def cmd_value(args: argparse.Namespace) -> int:
    triple = validate_triple(args.m, args.n, args.r)
    points = None if args.lambda_points is None else _parse_points(args.lambda_points)
    result = delta(triple, method=args.method, cross_check=args.check, points=points)
    print(" ".join(f"{key}={val}" for key, val in zip(FIELDS, _row(result))))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    # Every row is computed, and checked, before anything is printed.
    results = delta_table(args.n, args.method, args.check)
    if args.format == "json":
        print(_json_table(results))
    else:
        writer = csv.writer(sys.stdout)
        # Every field but elapsed_ms.
        writer.writerow(FIELDS[:-1])
        writer.writerows(_row(result)[:-1] for result in results)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so that value and table never load the test-only suites.
    from .checks import SUITES

    if args.suite != "all" and args.suite not in SUITES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}"
        )
    # The cross-methods suite runs theorem1 on every triple up to max_n: about
    # 0.2 s in all at n = 7, and theorem1 over the n = 8 triples alone takes
    # about 0.9 s.
    if not 2 <= args.max_n <= 7:
        raise ValueError(f"--max-n must lie in [2, 7], got {args.max_n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failure: Union[str, None] = None
    for name in names:
        report = SUITES[name](seed=args.seed, max_n=args.max_n)
        print(f"{name}: {report.passed}/{report.total} passed")
        if not report.ok() and failure is None:
            failure = f"{name} counterexample:\n{report.first_failure}"
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpdeg",
        description=(
            "Exact algebraic degree of semidefinite programming. Ranks are "
            "restricted to 1 <= r <= n-1; m must lie in the Pataki window."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check_help = (
        "cross-check with a second independent method: the residue sum "
        "checks psi_product and theorem1, the psi-product checks residue "
        "and closed forms"
    )

    value = sub.add_parser("value", help="compute delta(m, n, r)")
    value.add_argument("m", type=int)
    value.add_argument("n", type=int)
    value.add_argument("r", type=int)
    value.add_argument("--method", choices=METHODS, default="auto")
    value.add_argument("--check", action="store_true", help=check_help)
    value.add_argument(
        "--lambda", dest="lambda_points", metavar="L1,...,LN",
        help=(
            "comma-separated distinct rationals for the residue sum, as the "
            "method or as the --check of a psi_product or theorem1 value; "
            "every method checks them"
        ),
    )
    value.set_defaults(func=cmd_value)

    table = sub.add_parser("table", help="all valid (m, r) at a fixed n")
    table.add_argument("n", type=int)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--method", choices=METHODS, default="auto")
    table.add_argument("--check", action="store_true", help=check_help)
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the self-verification suites")
    verify.add_argument(
        "--suite", default="all", help="one suite name, or all (the default)"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--max-n", dest="max_n", type=int, default=4,
        help="largest n for the cross-methods suite",
    )
    verify.set_defaults(func=cmd_verify)
    return parser


def _attach_lambda(argv: Sequence[str]) -> list[str]:
    """Rewrite `--lambda VALUE` (or a prefix `--l`, `--la`, ...) as `--lambda=VALUE`.

    argparse reads a separate value starting with '-', such as -3/2,1,2, as an
    unknown option and exits with a usage error; attached with '=' it is read.
    """
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        flag, value = out[i], out[i + 1]
        if len(flag) > 2 and "--lambda".startswith(flag) and value[:1] == "-" and value[:2] != "--":
            out[i:i + 2] = [f"--lambda={value}"]
    return out


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Union[Sequence[str], None] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_lambda(argv))
    try:
        with warnings.catch_warnings():
            # "default" prints each distinct message once per call of main.
            warnings.simplefilter("default", RuntimeWarning)
            warnings.showwarning = _print_warning
            return args.func(args)
    except (CrossCheckError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT if isinstance(exc, CrossCheckError) else EXIT_VERIFY_FAILED
    except ValueError as exc:  # InvalidTripleError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
