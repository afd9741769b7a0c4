"""Command-line front end: single degree values, full Pataki tables, and the
self-verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid triple or usage,
3 cross-check disagreement.  A RuntimeWarning the library issues
(theorem1, the residue sum or the psi-product at large n) goes to standard
error as one `warning: ...` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from fractions import Fraction
from typing import Sequence, Union

from .degree import (
    METHODS,
    CrossCheckError,
    DegreeResult,
    delta,
    valid_triples,
    validate_triple,
    warn_psi_cost,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3

CSV_FIELDS = ("m", "n", "r", "k", "l", "delta", "method")


def _record(result: DegreeResult) -> dict:
    t = result.triple
    return {
        "m": t.m,
        "n": t.n,
        "r": t.r,
        "k": t.k,
        "l": t.ell,
        # Decimal string: values outgrow 64-bit consumers at larger n.
        "delta": str(result.delta),
        "method": result.method.value,
        "elapsed_ms": round(result.elapsed * 1000, 3),
    }


def _parse_points(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse sample points {text!r}: {exc}") from None


def cmd_value(args: argparse.Namespace) -> int:
    triple = validate_triple(args.m, args.n, args.r)
    points = None if args.lambda_points is None else _parse_points(args.lambda_points)
    result = delta(triple, method=args.method, cross_check=args.check, points=points)
    print(" ".join(f"{key}={val}" for key, val in _record(result).items()))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    triples = valid_triples(args.n)
    # The psi-product runs on the rows as the method (auto's too) or as the
    # checker of every method but theorem1; one estimate covers the table.
    if args.method in ("auto", "psi_product") or args.check and args.method != "theorem1":
        warn_psi_cost(args.n, len(triples))
    # Every row is computed, and checked, before anything is printed.
    records = [_record(delta(t, method=args.method, cross_check=args.check)) for t in triples]
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow([rec[field] for field in CSV_FIELDS])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so that value and table never load the test-only suites.
    from .checks import SUITES

    if args.suite != "all" and args.suite not in SUITES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}"
        )
    # The cross-methods suite runs theorem1 on every triple up to max_n: about
    # 1 s in all at n = 7, but theorem1 over the n = 8 triples alone takes
    # about 7 s.
    if not 2 <= args.max_n <= 7:
        raise ValueError(f"--max-n must lie in [2, 7], got {args.max_n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failure: Union[str, None] = None
    all_ok = True
    for name in names:
        report = SUITES[name](seed=args.seed, max_n=args.max_n)
        print(f"{name}: {report.passed}/{report.total} passed")
        if not report.ok():
            all_ok = False
            if failure is None:
                failure = f"{name} counterexample:\n{report.first_failure}"
    if not all_ok:
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
    value.add_argument("--method", choices=tuple(METHODS), default="auto")
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
    table.add_argument("--method", choices=tuple(METHODS), default="auto")
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
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except ValueError as exc:  # InvalidTripleError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
