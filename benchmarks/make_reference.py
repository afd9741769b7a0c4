"""Generate benchmarks/reference.json: delta(m, n, r) for every valid triple
with n <= MAX_N, each value confirmed by at least two independent routes.

Routes, all of which must agree exactly or the script fails:

  * residue sum at the sample points 1..n;
  * residue sum at a second, seeded set of distinct integer points;
  * residue sum on the duality partner (C(n+1,2) - m, n, n - r) at 1..n;
  * for n <= THEOREM1_MAX_N, delta(t, method="theorem1", cross_check=True),
    which raises unless coefficient extraction and the residue sum agree;
  * the closed form, where one applies to the triple or its partner.

Run from the repository root (takes a few minutes):

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sdpdeg import (  # noqa: E402
    delta,
    delta_closed,
    delta_residue,
    duality_partner,
    random_sample_points,
    valid_triples,
)

MAX_N = 9
# Coefficient extraction grows like n^n; n = 7 alone takes over a minute.
THEOREM1_MAX_N = 6
SECOND_POINTS_SEED = 2021

OUT = Path(__file__).resolve().parent / "reference.json"


def confirm(t) -> tuple[int, list[str]]:
    """The degree of t and the routes that agreed on it; raises on mismatch."""
    alt = random_sample_points(t.n, SECOND_POINTS_SEED, spread=t.n)
    values = {
        "residue@1..n": delta_residue(t).delta,
        f"residue@{','.join(map(str, alt))}": delta_residue(t, alt).delta,
        "duality+residue@1..n": delta_residue(duality_partner(t)).delta,
    }
    if t.n <= THEOREM1_MAX_N:
        values["theorem1+cross_check"] = delta(t, method="theorem1", cross_check=True).delta
    closed = delta_closed(t)
    if closed is not None:
        values[closed.method.value] = closed.delta
    if len(set(values.values())) != 1:
        raise SystemExit(f"routes disagree on (m={t.m}, n={t.n}, r={t.r}): {values}")
    return next(iter(values.values())), sorted(values)


def main() -> int:
    entries = []
    for n in range(2, MAX_N + 1):
        start = time.perf_counter()
        for t in valid_triples(n):
            value, routes = confirm(t)
            entries.append({"m": t.m, "n": t.n, "r": t.r, "delta": str(value), "routes": routes})
        print(f"n={n}: {len(valid_triples(n))} triples in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    document = {
        "description": "delta(m, n, r) for every valid triple with n <= "
        f"{MAX_N}; each value agreed across every listed route",
        "max_n": MAX_N,
        "triples": entries,
    }
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(entries)} triples to {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
