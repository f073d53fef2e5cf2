"""Spans around the benchmark's calls into each catnerve layer.

While a ``Tracer`` is installed, every function in ``TRACED`` is
replaced, in each catnerve module that binds it, by a wrapper that
records a span (name, metric, start, end, parent) and exact counters
taken from the call's arguments and result.  Spans stay in memory until
the run writes them out.  The program itself is not changed.

A span's self time is its duration minus the time its child spans
cover, counter bookkeeping included, so the self times of one job add
up to the job's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _category(args, kwargs, result):
    cat = args[0]
    return {"fincat.objects": len(cat.objects), "fincat.morphisms": len(cat.morphisms),
            "fincat.composites": len(cat.comp)}


def _nnz(matrix) -> int:
    rows = getattr(matrix, "entries", matrix)
    return sum(1 for row in rows for x in (row.values() if isinstance(row, dict) else row) if x)


def _pairs(args, kwargs, result):
    return {"grothendieck.adjunction_pairs": sum(int(d.split()[1]) for d in result.details if d.startswith("checked"))}


# (module, attribute, metric, counters(args, kwargs, result) or None)
TRACED = [
    ("io", "parse_category", "io.parse_s", lambda a, k, r: {"io.bytes_in": len(a[0])}),
    ("io", "parse_cover", "io.parse_s",
     lambda a, k, r: {"io.bytes_in": len(a[0]), "covers.parts": len(r.index_order)}),
    ("fincat", "validate_category", "fincat.validate_s", _category),
    ("covers", "is_cover", "covers.check_s", None),
    ("covers", "classify_subcategory", "covers.check_s", None),
    ("cech", "level", "cech.level_s", lambda a, k, r: {"cech.pieces": len(r)}),
    ("grothendieck", "ReducedGrothendieck.__init__", "grothendieck.build_s",
     lambda a, k, r: {"grothendieck.gr_objects": len(a[0].objects),
                      "grothendieck.gr_morphisms": len(a[0].morphisms)}),
    ("grothendieck", "adjunction_check_pi", "grothendieck.adjunction_s", _pairs),
    ("euler", "euler_characteristic", "euler.weighting_s",
     lambda a, k, r: {"euler.zeta_nnz": len({(m.dom, m.cod) for m in a[0].morphisms})}),
    ("euler", "inclusion_exclusion_terms", "euler.incl_excl_s", lambda a, k, r: {"euler.incl_excl_terms": len(r)}),
    ("euler", "mobius_oracle", "euler.mobius_s", None),
    ("homotopy", "nerve_chains", "homotopy.chains_s",
     lambda a, k, r: {"homotopy.chains_total": sum(len(lv) for lv in r), "homotopy.top_dim": len(r) - 1}),
    ("homotopy", "chain_complex", "homotopy.boundary_s", None),
    ("homotopy", "boundary_matrix", "homotopy.boundary_s", lambda a, k, r: {"homotopy.boundary_nnz": _nnz(r)}),
    ("homotopy", "rank", "homotopy.rank_s", lambda a, k, r: {"homotopy.rank_sum": r}),
]

# Counters combined by maximum; every other counter is summed.
MAX_COUNTERS = {"homotopy.top_dim"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _start(self, name: str, metric: str) -> dict:
        span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                "name": name, "metric": metric, "start": time.perf_counter(), "end": None,
                "counter_s": 0.0, "counters": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, metric: str):
        s = self._start(name, metric)
        try:
            yield s
        finally:
            self._end(s)

    def _wrap(self, fn, name: str, metric: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counters is not None:
                span["counters"] = counters(args, kwargs, result)
                span["counter_s"] = time.perf_counter() - span["end"]
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function wherever a catnerve module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, attr, metric, counters in TRACED:
            owner = getattr(package, mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{mod_name}.{attr}", metric, counters)
            if path:  # a method: patch the class
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @staticmethod
    def self_times(spans: list[dict]) -> dict[str, float]:
        """Self time per metric over ``spans`` (a closed set of trees)."""
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"] + s["counter_s"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["metric"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)

    @staticmethod
    def counters(spans: list[dict]) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in spans:
            for key, value in s["counters"].items():
                out[key] = max(out[key], value) if key in MAX_COUNTERS else out[key] + value
        return dict(out)
