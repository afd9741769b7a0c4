"""Command-line front end: single degree values, full Pataki tables, and the
self-verification suites.

Exit codes: 0 success, 1 a failed verify suite, a delta failing its
integrality check or a table rank failing its checksum, 2 invalid triple or
usage, or a request that does not fit in memory (one `error: ...` line, no
table), 3 cross-check disagreement, 141 (128 + SIGPIPE) standard output
closed by its reader, as by `sdpdeg table 16 --format json | head -1`, with
nothing on standard error.
A RuntimeWarning the library issues (a value or a table estimated at 11 s
or more, before it starts) goes to standard error as one `warning: ...` line.

Each call of `main` builds its parser anew, and builds in full only the
subcommand its command line names: every other subcommand is registered bare,
with its name and its help alone (see `build_parser`).  The help and the
errors are those of the whole parser.  One leading `--` before a subcommand's
name is dropped, so `sdpdeg -- table 4` is `sdpdeg table 4` on every Python.
"""

from __future__ import annotations

import argparse
import csv
import os
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a C writer

FIELDS = ("m", "n", "r", "k", "l", "delta", "method", "elapsed_ms")

SUBCOMMANDS = ("value", "table", "verify")


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


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of the command line `argv`.

    Every subcommand is registered with its help, but only a subcommand whose
    name is a token of `argv` is built in full; any other is a bare subparser,
    with no argument and no -h.  argparse hands the rest of the line only to
    the subparser named by the command token, so no other is ever parsed:
    help, usage lines, errors and exit codes are those of the full parser,
    `build_parser(SUBCOMMANDS)`, at about three fifths of its build time.
    """
    check_help = (
        "cross-check with a second independent method: the residue sum checks "
        "psi_product and theorem1, the psi-product checks residue and closed forms"
    )
    # One record per subcommand: its help, its handler, and the name and
    # options of each of its arguments.
    commands = {
        "value": ("compute delta(m, n, r)", cmd_value, (
            ("m", {"type": int}), ("n", {"type": int}), ("r", {"type": int}),
            ("--method", {"choices": METHODS, "default": "auto"}),
            ("--check", {"action": "store_true", "help": check_help}),
            ("--lambda", {"dest": "lambda_points", "metavar": "L1,...,LN", "help": (
                "comma-separated distinct rationals for the residue sum, as the "
                "method or as the --check of a psi_product or theorem1 value; "
                "every method checks them")}),
        )),
        "table": ("all valid (m, r) at a fixed n", cmd_table, (
            ("n", {"type": int}),
            ("--format", {"choices": ("csv", "json"), "default": "csv"}),
            ("--method", {"choices": METHODS, "default": "auto"}),
            ("--check", {"action": "store_true", "help": check_help}),
        )),
        "verify": ("run the self-verification suites", cmd_verify, (
            ("--suite", {"default": "all", "help": "one suite name, or all (the default)"}),
            ("--seed", {"type": int, "default": 0}),
            ("--max-n", {"type": int, "default": 4, "help": "largest n for the cross-methods suite"}),
        )),
    }
    parser = argparse.ArgumentParser(
        prog="sdpdeg",
        description=(
            "Exact algebraic degree of semidefinite programming. Ranks are "
            "restricted to 1 <= r <= n-1; m must lie in the Pataki window."
        ),
    )
    # Given its prog, add_subparsers formats no usage line to derive it; the
    # parser has no positional argument, so that line would be the prog alone.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (summary, func, arguments) in commands.items():
        named = name in argv
        command = sub.add_parser(name, help=summary, add_help=named)
        if named:
            for flag, options in arguments:
                command.add_argument(flag, **options)
        command.set_defaults(func=func)
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
    # argparse before 3.13 reads a `--` before the subcommand as its name
    if len(argv) > 1 and argv[0] == "--" and argv[1] in SUBCOMMANDS:
        argv = argv[1:]
    args = build_parser(argv).parse_args(_attach_lambda(argv))
    try:
        with warnings.catch_warnings():
            # "default" prints each distinct message once per call of main.
            warnings.simplefilter("default", RuntimeWarning)
            warnings.showwarning = _print_warning
            status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed standard output.  Point its descriptor at devnull,
        # so that the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CrossCheckError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT if isinstance(exc, CrossCheckError) else EXIT_VERIFY_FAILED
    except ValueError as exc:  # InvalidTripleError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OverflowError, MemoryError) as exc:  # e.g. the psi sweep's 2^(n-1) list
        print(f"error: the request does not fit in memory ({type(exc).__name__})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
