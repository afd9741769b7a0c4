"""sdpdeg benchmark: drives the real CLI (`sdpdeg.cli.main`) in-process.

One client in a closed loop: the next request starts only after the previous
one returns.  A run builds one pass (a request list) from the seed and
repeats it for about --seconds, checking every delta against the committed
reference table.  `SDPDEG_THREADS` is removed from the environment.  Times
are in reference seconds (see speed.py).

    python3 benchmarks/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py).  The last line
of standard output is one JSON object; a fuller record, with the environment,
goes to benchmarks/results/.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 4

sys.path.insert(0, str(BENCH))
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

# Workload -> the n values its requests cover: (full run, tiny test run).
WORKLOAD_NS = {
    # `table n --format json` for each n: the auto production path.
    "table-sweep": (range(4, 10), range(4, 6)),
    # `value m n r --check` for every valid triple: the second opinion.
    "checked-value": (range(4, 7), range(4, 5)),
    # `value m n r --method residue --lambda=<rationals>`: Fraction residue.
    "rational-points": (range(5, 8), range(5, 6)),
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expected: dict  # (m, n, r) -> delta as a decimal string


def load_reference() -> dict[int, dict[tuple[int, int, int], str]]:
    """The committed reference table, grouped by n in (r, m) order."""
    document = json.loads((BENCH / "reference.json").read_text())
    by_n: dict[int, dict] = {}
    for entry in document["triples"]:
        by_n.setdefault(entry["n"], {})[(entry["m"], entry["n"], entry["r"])] = entry["delta"]
    return by_n


def rational_points(rng: random.Random, n: int) -> list[Fraction]:
    """n distinct rationals p/q, one for each denominator q = 2..n+1.

    Fixing the denominators and the numerator range keeps the cost of a
    request about the same from seed to seed.
    """
    while True:
        points = []
        for q in range(2, n + 2):
            p = rng.choice([p for p in range(-3 * q, 3 * q + 1) if math.gcd(p, q) == 1])
            points.append(Fraction(p, q))
        if len(set(points)) == n:
            rng.shuffle(points)
            return points


def make_requests(workload: str, seed: int, ns: range, reference: dict) -> list[Request]:
    """One pass of the workload; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "table-sweep":
        order = list(ns)
        rng.shuffle(order)
        return [Request(("table", str(n), "--format", "json"), reference[n]) for n in order]
    triples = [key for n in ns for key in reference[n]]
    rng.shuffle(triples)
    requests = []
    for m, n, r in triples:
        argv: tuple[str, ...] = ("value", str(m), str(n), str(r))
        if workload == "checked-value":
            argv += ("--check",)
        else:
            # `--lambda -3/2,...` is read as an option and exits 2; the `=`
            # form passes a leading minus through.
            points = ",".join(map(str, rational_points(rng, n)))
            argv += ("--method", "residue", f"--lambda={points}")
        requests.append(Request(argv, {(m, n, r): reference[n][(m, n, r)]}))
    return requests


def load_program():
    """Import sdpdeg.cli afresh from this checkout's src/ and return it."""
    src = ROOT / "src"
    if not (src / "sdpdeg" / "cli.py").is_file():
        raise SystemExit(f"error: no sdpdeg sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [name for name in sys.modules if name.split(".")[0] == "sdpdeg"]:
        del sys.modules[name]
    cli = importlib.import_module("sdpdeg.cli")
    if Path(cli.__file__).resolve().parent != src / "sdpdeg":
        raise SystemExit(f"error: imported sdpdeg from {cli.__file__}, not {src}")
    return cli


def invoke(cli, argv: tuple[str, ...]) -> tuple[object, str]:
    """Run one CLI request; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def check(request: Request, code: object, out: str) -> tuple[int, str | None]:
    """The number of verified deltas in a response, and what is wrong with it."""
    if code != 0:
        return 0, f"exit code {code!r}"
    try:
        if request.argv[0] == "table":
            got = {(rec["m"], rec["n"], rec["r"]): rec["delta"] for rec in json.loads(out)}
        else:
            fields = dict(token.split("=", 1) for token in out.split())
            got = {(int(fields["m"]), int(fields["n"]), int(fields["r"])): fields["delta"]}
    except (ValueError, KeyError, TypeError) as exc:
        return 0, f"unparsable output ({exc}): {out[:200]!r}"
    if got != request.expected:
        wrong = sorted(k for k in request.expected.keys() | got.keys()
                       if got.get(k) != request.expected.get(k))
        return 0, f"{len(wrong)} deltas differ from the reference, first at (m, n, r) = {wrong[0]}"
    return len(got), None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "SDPDEG_THREADS": "unset",
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, ns: range) -> dict:
    """Set up, run passes until `seconds` have elapsed, and return the record.

    Every time reported is in reference seconds (see speed.py).
    """
    os.environ.pop("SDPDEG_THREADS", None)
    clock = time.perf_counter
    setups = []  # (start, end) of each set-up

    def set_up():
        probe.tick()
        start = clock()
        program = load_program(), make_requests(workload, seed, ns, load_reference())
        setups.append((start, clock()))
        return program

    tracer = Tracer() if trace else None
    passes = []  # (traced, [(start, end) of each request])
    layer_stats, failures = [], []
    attempted = failed = verified = 0
    with SpeedProbe() as probe:
        # Set-up runs once before every pass as well, so its samples spread
        # over the run like the latencies do.
        for _ in range(SETUP_REPEATS):
            set_up()
        deadline = clock() + seconds
        # Start another pass while at least half of a typical pass fits.
        measured = []  # measured seconds of each pass, to pace the run
        while len(passes) < (2 if trace else 1) or clock() + median(measured) / 2 < deadline:
            traced = trace and len(passes) % 2 == 1
            # A fresh import per pass, as a new process would start: state
            # the program keeps lives for one pass.
            cli, requests = set_up()
            responses, spans = [], []
            with tracer.installed() if traced else contextlib.nullcontext():
                for index, request in enumerate(requests):
                    if traced:
                        tracer.request = index
                    probe.tick()
                    sent = clock()
                    responses.append(invoke(cli, request.argv))
                    spans.append((sent, clock()))
                probe.tick()
            passes.append((traced, spans))
            measured.append(spans[-1][1] - spans[0][0])
            if traced:
                layer_stats.append((tracer.end_pass(), spans[0][0], spans[-1][1]))
            for request, (code, out) in zip(requests, responses):
                attempted += 1
                count, error = check(request, code, out)
                verified += count
                if error is not None:
                    failed += 1
                    failures.append(f"{' '.join(request.argv)}: {error}")

    walls = {False: [], True: []}  # reference seconds per pass
    samples = [[] for _ in requests]  # reference seconds per untraced request
    for traced, spans in passes:
        times = [probe.reference_seconds(start, end) for start, end in spans]
        walls[traced].append(sum(times))
        if not traced:
            for request_samples, latency in zip(samples, times):
                request_samples.append(latency)
    # A request's latency is its median over the passes.  Percentiles over
    # all samples would fall between two kinds of request on table-sweep
    # (6 per pass) and pick the extreme samples of each.
    latencies = [median(request_samples) for request_samples in samples]
    if trace:
        scaled = []
        for stats, start, end in layer_stats:
            scale = REFERENCE_KERNEL_S / probe.kernel_time(start, end)
            scaled.append({k: v * scale if k.endswith("_s") else v for k, v in stats.items()})
        metrics = summarize(scaled)
        metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    else:
        metrics = {
            "setup_s": median(probe.reference_seconds(*setup) for setup in setups),
            "wall_s": median(walls[False]),
            "triples_per_s": verified / sum(walls[False]),
            "latency_p50_ms": 1000 * median(latencies),
            "latency_p90_ms": 1000 * quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "requests_per_pass": len(requests),
        "pass_wall_s": walls[False],
        "traced_pass_wall_s": walls[True],
        "measured_pass_s": measured,  # every pass in run order, before scaling
        "setup_s_measured": [end - start for start, end in setups],
        "kernel_s": {"reference": REFERENCE_KERNEL_S, "samples": len(probe.durations),
                     "median": median(probe.durations), "min": min(probe.durations)},
        "latency_samples": sum(map(len, samples)),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "verified_triples": verified,
        "failures": failures[:20],
        "metrics": metrics,
        "tracer": tracer,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_NS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_metrics(bool(args.trace))
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                       WORKLOAD_NS[args.workload][0])
    if set(record["metrics"]) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(record['metrics']) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    tracer = record.pop("tracer")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.csv.gz")

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    passes = len(record["pass_wall_s"]) + len(record["traced_pass_wall_s"])
    print(f"{args.workload}: {passes} passes of {record['requests_per_pass']} requests, "
          f"{record['latency_samples']} latency samples, {record['verified_triples']} deltas "
          f"verified, failed_fraction {record['failed_fraction']:.4f}")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
