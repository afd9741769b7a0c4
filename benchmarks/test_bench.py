"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bits", "ratio")


def tiny_run(workload: str, trace: bool, seed: int = 3) -> dict:
    """One pass (two when traced) over the workload's smallest n values."""
    return run.benchmark(workload, seed, 0, trace, run.WORKLOAD_NS[workload][1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    record = tiny_run(workload, trace)
    assert record["failed"] == 0 and record["attempted"] >= 1
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == declared


@pytest.mark.parametrize("workload", run.WORKLOAD_NS)
def test_traced_counts_repeat_exactly(workload):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    first, second = (tiny_run(workload, True)["metrics"] for _ in range(2))
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["cli.main.calls"] == len(run.make_requests(
        workload, 3, run.WORKLOAD_NS[workload][1], run.load_reference()))


@pytest.mark.parametrize("workload", run.WORKLOAD_NS)
def test_seed_orders_the_requests_but_keeps_the_triples(workload):
    reference = run.load_reference()
    ns = run.WORKLOAD_NS[workload][0]
    a, b = (run.make_requests(workload, seed, ns, reference) for seed in (1, 2))
    assert a == run.make_requests(workload, 1, ns, reference)
    assert a != b
    assert sorted(k for req in a for k in req.expected) == sorted(k for req in b for k in req.expected)


def test_reference_covers_every_valid_triple_up_to_n9():
    reference = run.load_reference()
    counts = {n: len(reference[n]) for n in range(2, 10)}
    # r(n-r) + 1 values of m for each rank 1 <= r <= n-1.
    assert counts == {n: sum(r * (n - r) + 1 for r in range(1, n)) for n in range(2, 10)}
    assert sum(counts[n] for n in range(4, 10)) == 358


def test_wrong_delta_or_exit_code_is_a_failure():
    request = run.Request(("value", "3", "4", "2"), {(3, 4, 2): "10"})
    assert run.check(request, 0, "m=3 n=4 r=2 k=0 l=4 delta=10 method=closed_form") == (1, None)
    assert run.check(request, 0, "m=3 n=4 r=2 k=0 l=4 delta=11 method=closed_form")[1]
    assert run.check(request, 3, "")[1]
    assert run.check(request, 0, "garbage")[1]
