"""Span tracing for the benchmark's traced runs, from outside the library.

``install`` wraps the public functions of each loopbetti layer and rebinds
every module-level name that refers to them (so ``loopbetti.verify`` and
``loopbetti.pinched`` call the wrapped versions of what they imported).
Each call records a span: name, start, end, parent span and the smash power
``s`` it works for (taken from the call's arguments, else inherited from the
parent span).  Counts such as cells, nnz and intersections are read from the
arguments and returned objects, inside a ``trace.count`` span of their own so
that the bookkeeping is not charged to any layer.  Nothing under ``src/`` is
edited: the wrapping lasts only as long as the traced child process.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Optional


class Recorder:
    """Spans kept in memory as [name, start, end, parent, s, counts]."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str, s: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if s is None and parent is not None:
            s = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, s, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def metrics(self) -> dict[str, float]:
        """Self time (``<span>_s``), call counts (``<span>_calls``) and the
        recorded counters, summed over spans; ``.s<k>`` keys split them by
        smash power.  A span's self time is its duration minus the time its
        child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, s, counts in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}

        def add(key: str, s: Optional[int], value: float) -> None:
            out[key] = out.get(key, 0) + value
            if s is not None:
                out[f"{key}.s{s}"] = out.get(f"{key}.s{s}", 0) + value

        for (name, start, end, parent, s, counts), inner in zip(self.spans, child_time):
            add(f"{name}_s", s, end - start - inner)
            add(f"{name}_calls", s, 1)
            for key, value in (counts or {}).items():
                add(key, s, value)
        out["trace.spans"] = len(self.spans)
        return out


def _span_wrapper(
    rec: Recorder,
    name: str,
    fn: Callable,
    s_arg: Optional[tuple[int, str]],
    count: Optional[Callable],
) -> Callable:
    def traced(*args, **kwargs):
        s = None
        if s_arg is not None:
            index, keyword = s_arg
            s = args[index] if len(args) > index else kwargs.get(keyword)
        span = rec.open(name, s)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            bookkeeping = rec.open("trace.count")
            rec.spans[span][5] = count(args, result)
            rec.close(bookkeeping)
        return result

    return traced


# -- counters: (args, result) -> {metric: value} ------------------------------

def _subset_cells(args, subset) -> dict[str, int]:
    return {"pinched.cells": sum(subset.counts().values())}


def _chain_counts(args, _none) -> dict[str, int]:
    cc = args[0]
    nnz = faces = 0
    for n in range(1, cc.top + 1):
        nnz += cc.boundary(n).nnz()
        faces += (n + 1) * len(cc.basis(n))
    return {"homology.nnz": nnz, "constructions.face_calls": faces}


def _intersections(args, _total) -> dict[str, int]:
    return {"pinched.intersections": 2 ** (args[2] - 1) - 1}


def _quotient_route(args, result) -> dict[str, int]:
    _table, note = result
    return {"verify.direct_quotients": int(note.startswith("direct quotient"))}


def _quotient_cells(args, result) -> dict[str, int]:
    quot = result[0]
    top = min(quot.top_dim(), quot.truncation)
    return {"constructions.quotient_cells": sum(len(quot.nondeg(n)) for n in range(top + 1))}


def _free_orbits(args, _section) -> dict[str, int]:
    space, invol = args[0], args[1]
    moved = sum(
        1 for n in range(space.top_dim() + 1) for key in space.nondeg(n) if invol(key) != key
    )
    return {"constructions.find_section_orbits": moved // 2}


# (module, attribute, span name, (index, keyword) of the smash power, counter)
FUNCTIONS = [
    ("loopbetti.sset_io", "parse", "sset_io.parse", None, None),
    ("loopbetti.constructions", "orbit_space", "constructions.orbit_space", None, None),
    ("loopbetti.constructions", "find_section", "constructions.find_section", None, _free_orbits),
    ("loopbetti.constructions", "quotient", "constructions.quotient", None, _quotient_cells),
    ("loopbetti.pinched", "pinched_betti_brute", "pinched.brute_table", (2, "s"), None),
    ("loopbetti.pinched", "pinched_set", "pinched.pinched_set", (2, "s"), _subset_cells),
    ("loopbetti.pinched", "check_diagonal_null", "pinched.diagonal_check", None, None),
    ("loopbetti.pinched", "mv_e1_betti", "pinched.mv_e1", (2, "s"), _intersections),
    ("loopbetti.homology", "kunneth", "homology.kunneth", None, None),
    ("loopbetti.homology", "ChainComplexGF2.__init__", "homology.chain_build", None, _chain_counts),
    (
        "loopbetti.homology",
        "ChainComplexGF2.check_boundary_squares_to_zero",
        "homology.d2_check",
        None,
        None,
    ),
    ("loopbetti.closed_form", "betti_pinched_formula", "closed_form.formula", (1, "s"), None),
    ("loopbetti.verify", "stunted_quotient_betti", "verify.quotient_route", (2, "s"), _quotient_route),
    ("loopbetti.verify", "try_materialize_count", "verify.ambient_count", None, None),
]


def _rank_wrapper(rec: Recorder, fn: Callable) -> Callable:
    # a matrix caches its rank; only the first call eliminates, and only
    # that call is a span
    def rank(self):
        if getattr(self, "_rank", None) is not None:
            return fn(self)
        span = rec.open("homology.rank")
        try:
            return fn(self)
        finally:
            rec.close(span)

    return rank


def install(rec: Recorder) -> None:
    """Wrap every traced function for the rest of this process."""

    def rebind(owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "loopbetti" and not mod_name.startswith("loopbetti."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

    for mod_name, attr_path, span_name, s_arg, count in FUNCTIONS:
        module = importlib.import_module(mod_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        rebind(owner, attr, original, _span_wrapper(rec, span_name, original, s_arg, count))

    matrix = importlib.import_module("loopbetti.homology").GF2SparseMatrix
    rebind(matrix, "rank", matrix.rank, _rank_wrapper(rec, matrix.rank))
