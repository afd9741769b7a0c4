"""Acceptance suite.

Every criterion is checked at exact equality (the library is integer/rational
arithmetic throughout; there are no tolerances to loosen) and prints one
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from math import comb

from sdpdeg.checks import run_identities, run_lemma21, run_prop22
from sdpdeg.degree import (
    delta_closed,
    delta_residue,
    delta_theorem1,
    duality_partner,
    random_sample_points,
    valid_triples,
    validate_triple,
)

# Degree results collected by criteria 1-5; criterion 9 audits them all.
RECORDED = []


def _report(number, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {status}")
    assert not failures, failures[:5]


def test_criterion_1_closed_form_full_corank():
    failures = []
    for n in range(2, 9):
        for m in range(1, n + 1):
            result = delta_residue(validate_triple(m, n, n - 1))
            RECORDED.append(result)
            expected = 2 ** (m - 1) * comb(n, m)
            if result.delta != expected:
                failures.append(f"(m={m}, n={n}, r={n - 1}): {result.delta} != {expected}")
    _report(1, "closed form at r = n-1, n in [2,8]", failures)


def test_criterion_2_closed_form_corank_two():
    failures = []
    for n in range(4, 9):
        for m, expected in ((3, comb(n + 1, 3)), (4, 6 * comb(n + 1, 4))):
            result = delta_residue(validate_triple(m, n, n - 2))
            RECORDED.append(result)
            if result.delta != expected:
                failures.append(f"residue (m={m}, n={n}): {result.delta} != {expected}")
    for n in range(4, 7):
        for m, expected in ((3, comb(n + 1, 3)), (4, 6 * comb(n + 1, 4))):
            result = delta_theorem1(validate_triple(m, n, n - 2))
            RECORDED.append(result)
            if result.delta != expected:
                failures.append(f"theorem1 (m={m}, n={n}): {result.delta} != {expected}")
    spots = {(3, 4, 2): 10, (4, 4, 2): 30, (3, 5, 3): 20, (4, 5, 3): 90}
    for (m, n, r), expected in spots.items():
        result = delta_residue(validate_triple(m, n, r))
        RECORDED.append(result)
        if result.delta != expected:
            failures.append(f"spot (m={m}, n={n}, r={r}): {result.delta} != {expected}")
    _report(2, "closed forms at r = n-2, m in {3,4}", failures)


def test_criterion_3_duality():
    failures = []
    for n in range(2, 7):
        for t in valid_triples(n):
            left = delta_residue(t)
            right = delta_residue(duality_partner(t))
            RECORDED.extend((left, right))
            if left.delta != right.delta:
                failures.append(
                    f"(m={t.m}, n={n}, r={t.r}): {left.delta} != dual {right.delta}"
                )
    _report(3, "duality over every valid triple, n <= 6", failures)


def test_criterion_4_cross_method_agreement():
    failures = []
    boundary_k0 = boundary_l0 = 0
    for n in range(2, 7):
        for t in valid_triples(n):
            boundary_k0 += t.k == 0
            boundary_l0 += t.ell == 0
            a = delta_theorem1(t)
            b = delta_residue(t)
            RECORDED.extend((a, b))
            if a.delta != b.delta:
                failures.append(f"(m={t.m}, n={n}, r={t.r}): {a.delta} != {b.delta}")
            closed = delta_closed(t)
            if closed is not None and closed.delta != a.delta:
                failures.append(
                    f"(m={t.m}, n={n}, r={t.r}): closed form {closed.delta} != {a.delta}"
                )
    if boundary_k0 == 0 or boundary_l0 == 0:
        failures.append("boundary triples with k = 0 or l = 0 were not exercised")
    _report(4, "theorem1 = residue on every valid triple, n <= 6", failures)


def test_criterion_5_sample_point_invariance():
    failures = []
    seeds = (101, 202, 303)
    for n in range(2, 8):
        for t in valid_triples(n):
            values = []
            for seed in seeds:
                result = delta_residue(t, random_sample_points(n, seed))
                RECORDED.append(result)
                values.append(result.delta)
            if len(set(values)) != 1:
                failures.append(f"(m={t.m}, n={n}, r={t.r}): {values}")
    _report(5, "residue invariant across 3 seeded point sets, n <= 7", failures)


def test_criterion_6_root_residue_suite():
    report = run_lemma21(seed=7)
    failures = []
    if report.total != 100 or report.failed:
        failures.append(
            f"{report.passed}/{report.total} passed; first failure: {report.first_failure}"
        )
    _report(6, "100 seeded root-residue cases", failures)


def test_criterion_7_doubly_symmetric_suite():
    report = run_prop22(seed=7)
    failures = []
    if report.total != 150 or report.failed:
        failures.append(
            f"{report.passed}/{report.total} passed; first failure: {report.first_failure}"
        )
    _report(7, "50 doubly symmetric cases x 3 point sets", failures)


def test_criterion_8_symmetric_identity_suite():
    report = run_identities()
    failures = []
    if report.total != 102 or report.failed:
        failures.append(
            f"{report.passed}/{report.total} passed; first failure: {report.first_failure}"
        )
    _report(8, "psi closed forms + Schur expansion identities", failures)


def test_criterion_9_integrality_guard():
    results = list(RECORDED)
    if not results:
        # criteria 1-5 were skipped (selective run); audit a small sweep instead
        for n in range(2, 5):
            for t in valid_triples(n):
                results.append(delta_residue(t))
                results.append(delta_theorem1(t))
    failures = [
        f"(m={r.triple.m}, n={r.triple.n}, r={r.triple.r}) via {r.method.value}: {r.delta!r}"
        for r in results
        if not isinstance(r.delta, int) or r.delta < 1
    ]
    print(f"  audited {len(results)} degree computations")
    _report(9, "every computed degree is a positive integer", failures)
