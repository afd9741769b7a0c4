"""Outside-in tracing of sdpdeg's layers for the benchmark.

The package imports its functions by name (cli.py does
`from .degree import delta`, degree.py does `from .schur import bareiss_det`),
so a layer is wrapped at every import site: every attribute of a loaded
`sdpdeg*` module that is the layer's function is replaced by the wrapper.
Each wrapper records one span (id, parent id, request id, name, start, end)
and the layer's exact counts.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path
from statistics import median

# Layer name -> (home module, attribute path).  Names match BENCHMARK.json.
LAYERS = {
    "cli.main": ("sdpdeg.cli", "main"),
    "degree.validate_triple": ("sdpdeg.degree", "validate_triple"),
    "degree.valid_triples": ("sdpdeg.degree", "valid_triples"),
    "degree.delta": ("sdpdeg.degree", "delta"),
    "degree.delta_closed": ("sdpdeg.degree", "delta_closed"),
    "degree.delta_residue": ("sdpdeg.degree", "delta_residue"),
    "degree.h_determinant": ("sdpdeg.degree", "h_determinant"),
    "degree.delta_theorem1": ("sdpdeg.degree", "delta_theorem1"),
    "schur.bareiss_det": ("sdpdeg.schur", "bareiss_det"),
    "schur.psi": ("sdpdeg.schur", "psi"),
    "polynomial.SparsePolynomial.mul": ("sdpdeg.polynomial", "SparsePolynomial.mul"),
    "polynomial.complete_homogeneous": ("sdpdeg.polynomial", "complete_homogeneous"),
    "polynomial.product_coefficient": ("sdpdeg.polynomial", "product_coefficient"),
}

# The method calls whose first non-None result is delta's primary result;
# later method calls inside a checked delta span are the cross-check.
METHODS = ("degree.delta_closed", "degree.delta_residue", "degree.delta_theorem1")

# Counts beyond calls, per layer.  Each is exact for a fixed request list.
EXTRA_COUNTS = {
    "degree.delta_closed": ("hits",),
    "degree.delta_residue": ("subsets",),
    "degree.h_determinant": ("order_sum",),
    "schur.bareiss_det": ("size_sum", "max_bits"),
    "polynomial.SparsePolynomial.mul": ("pairs", "terms_out"),
}


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


def _count(name: str, counts: dict, args: tuple, result) -> None:
    """Add the layer's extra counts for one call."""
    if name == "degree.delta_closed":
        counts["hits"] += result is not None
    elif name == "degree.delta_residue":
        t = args[0]
        counts["subsets"] += comb(t.n, t.r)
    elif name == "degree.h_determinant":
        counts["order_sum"] += args[1]
    elif name == "schur.bareiss_det":
        counts["size_sum"] += len(args[0])
        counts["max_bits"] = max(counts["max_bits"], _bits(result))
    elif name == "polynomial.SparsePolynomial.mul":
        counts["pairs"] += len(args[0]) * len(args[1])
        counts["terms_out"] += len(result)


class Tracer:
    """Spans and counts for the layers in LAYERS, one pass at a time."""

    def __init__(self):
        self.request = 0
        self.passes: list[list[tuple]] = []  # spans of each finished pass
        self._ids = itertools.count(1)
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.counts = {name: defaultdict(int) for name in LAYERS}
        self.cross_check_s = 0.0
        self._stack = [0]
        self._checked: list[list] = []  # per open delta span: [checked, primary_end]

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        is_method = name in METHODS
        signature = inspect.signature(fn) if name == "degree.delta" else None

        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1]
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                self._checked.append([bool(bound.arguments.get("cross_check")), None])
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span_id, parent, self.request, name, start, end))
                if signature is not None:
                    checked, primary_end = self._checked.pop()
                    if checked and primary_end is not None:
                        self.cross_check_s += end - primary_end
            counts = self.counts[name]
            counts["calls"] += 1
            _count(name, counts, args, result)
            if is_method and result is not None and self._checked:
                frame = self._checked[-1]
                if frame[1] is None:
                    frame[1] = end
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer at every import site; restore the originals on exit."""
        patched = []
        for name, (module_name, attr_path) in LAYERS.items():
            owner = sys.modules[module_name]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:  # a method: the class is its only site
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "sdpdeg":
                    continue
                for site, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, site, original))
                        setattr(module, site, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def end_pass(self) -> dict:
        """Close the current pass; return its per-layer numbers."""
        durations = defaultdict(float)
        child_time = defaultdict(float)
        for span_id, parent, _, name, start, end in self.spans:
            durations[name] += end - start
            child_time[parent] += end - start
        self_time = defaultdict(float)
        for span_id, parent, _, name, start, end in self.spans:
            self_time[name] += end - start - child_time[span_id]
        stats = {"degree.cross_check_s": self.cross_check_s}
        for name in LAYERS:
            counts = self.counts[name]
            stats[f"{name}.calls"] = counts["calls"]
            stats[f"{name}.time_s"] = durations[name]
            stats[f"{name}.self_s"] = self_time[name]
            for extra in EXTRA_COUNTS.get(name, ()):
                stats[f"{name}.{extra}"] = counts[extra]
        closed = self.counts["degree.delta_closed"]
        stats["degree.delta_closed.hit_ratio"] = (
            closed["hits"] / closed["calls"] if closed["calls"] else 0.0
        )
        mul = self.counts["polynomial.SparsePolynomial.mul"]
        stats["polynomial.SparsePolynomial.mul.terms_per_pair"] = (
            mul["terms_out"] / mul["pairs"] if mul["pairs"] else 0.0
        )
        self.passes.append(self.spans)
        self._reset()
        return stats

    def write_spans(self, path: Path) -> None:
        """All spans of every traced pass as gzipped CSV, times in seconds."""
        with gzip.open(path, "wt") as out:
            out.write("pass,span,parent,request,name,start,end\n")
            for index, spans in enumerate(self.passes):
                for span_id, parent, request, name, start, end in spans:
                    out.write(f"{index},{span_id},{parent},{request},{name},{start!r},{end!r}\n")


def summarize(per_pass: list[dict]) -> dict:
    """Counts (exact) from the first traced pass; times (names ending in
    `_s`) as the median over the traced passes."""
    return {
        key: median(stats[key] for stats in per_pass) if key.endswith("_s") else value
        for key, value in per_pass[0].items()
    }
