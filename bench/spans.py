"""Run-time span tracing of orbit-betti from outside the package.

A :class:`Tracer` replaces a fixed set of the package's functions with
wrappers while it is active and restores them on exit.  A function is
rebound in every loaded ``orbit_betti`` module that holds it, so names a
module took with ``from ... import`` (``pipeline.image_membership``,
``pipeline.rewrite_formula``, ``pipeline.stable_betti``, ...) are caught as
well as module globals (``fibres.solve_fibre``, ``cubical.collapsed_cells``).

Each wrapped call records a span (name, start, end, parent span, run id)
and may bump counters from its arguments and result.  Spans are kept in
memory; :func:`layer_table` turns them into per-layer self times, where a
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT_SPAN = "bench.pass"
SETUP_SPAN = "bench.setup"

WRAPPED_MARK = "__bench_wrapped__"


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    run: str
    thread: int
    start: float
    end: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "run": self.run,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
        }


# -- counters taken from the arguments and result of a wrapped call -----------


def _membership(counters, args, kwargs, result, seconds):
    counters[f"fibres.membership_calls.{result}"] += 1
    counters[f"fibres.membership_s.{result}"] += seconds


def _solve_fibre(counters, args, kwargs, result, seconds):
    counters["fibres.solve_fibre_calls"] += 1
    counters["fibres.solve_fibre_hits"] += bool(result.solutions)
    counters["fibres.undecided_boxes"] += result.undecided_boxes


def _section(counters, args, kwargs, result, seconds):
    counters["fibres.section_candidates"] += result.candidates


def _build(counters, args, kwargs, result, seconds):
    points = 1
    for m in result.grid_shape:
        points *= m
    counters["cubical.grid_points"] += points
    counters["cubical.cells_built"] += result.total_cells()


def _collapse(counters, args, kwargs, result, seconds):
    counters["cubical.cells_before_collapse"] += sum(len(v) for v in args[0].values())
    counters["cubical.cells_after_collapse"] += sum(len(v) for v in result.values())


def _batch(counters, args, kwargs, result, seconds):
    counters["pipeline.oracle_points"] += len(args[1])


def _formula_mask(counters, args, kwargs, result, seconds):
    counters["pipeline.filter_points"] += len(result)
    counters["pipeline.filter_passed"] += int(result.sum())


def _calls(key):
    def observe(counters, args, kwargs, result, seconds):
        counters[key] += 1

    return observe


# (module, attribute path, span name or None for counters only, observer)
TARGETS: list[tuple[str, str, str | None, Callable | None]] = [
    ("orbit_betti.cli", "main", "cli.main", None),
    ("orbit_betti.polys", "parse_formula", "polys.parse_formula", None),
    ("orbit_betti.powersums", "rewrite_formula", "powersums.rewrite_formula",
     _calls("powersums.rewrite_calls")),
    ("orbit_betti.compositions", "comp_kd", "compositions.comp_kd",
     _calls("compositions.comp_kd_calls")),
    ("orbit_betti.fibres", "image_membership", "fibres.image_membership", _membership),
    ("orbit_betti.fibres", "solve_fibre", "fibres.solve_fibre", _solve_fibre),
    ("orbit_betti.fibres", "arnold_section", "fibres.arnold_section", _section),
    ("orbit_betti.cubical", "build_cubical", "cubical.build_cubical", _build),
    ("orbit_betti.cubical", "collapsed_cells", "cubical.collapsed_cells", _collapse),
    ("orbit_betti.cubical", "betti_numbers", "cubical.betti_numbers", None),
    ("orbit_betti.cubical", "stable_betti", "cubical.stable_betti", None),
    ("orbit_betti.pipeline", "quotient_betti", "pipeline.quotient_betti", None),
    ("orbit_betti.pipeline", "_QuotientOracle.batch", "pipeline.oracle_batch", _batch),
    # counted, not timed: the filter runs inside the oracle's batch
    ("orbit_betti.pipeline", "_formula_mask", None, _formula_mask),
]

# Which layer metric a span's self time goes to.  stable_betti is the
# two-resolution loop that drives the grid, so it counts as pipeline.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "polys.parse_formula": "polys.parse_s",
    "powersums.rewrite_formula": "powersums.rewrite_s",
    "compositions.comp_kd": "compositions.comp_kd_s",
    "fibres.image_membership": "fibres.probe_s",
    "fibres.solve_fibre": "fibres.subdivision_s",
    "fibres.arnold_section": "fibres.section_s",
    "cubical.build_cubical": "cubical.build_s",
    "cubical.collapsed_cells": "cubical.collapse_s",
    "cubical.betti_numbers": "cubical.rank_s",
    "cubical.stable_betti": "pipeline.self_s",
    "pipeline.quotient_betti": "pipeline.self_s",
    "pipeline.oracle_batch": "pipeline.oracle_s",
    ROOT_SPAN: "trace.unattributed_s",
    SETUP_SPAN: "setup.unattributed_s",
}

LAYER_SELF_METRICS = sorted(
    {m for name, m in SELF_METRIC.items() if name not in (ROOT_SPAN, SETUP_SPAN)})


def _resolve(module_name: str, path: str):
    """The object holding the attribute, and the attribute name."""
    holder = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, attr


def installed_wrappers() -> list[str]:
    """Loaded targets currently replaced by a wrapper (none when tracing is off)."""
    found = []
    for module_name, path, _name, _observe in TARGETS:
        if module_name not in sys.modules:
            continue
        holder, attr = _resolve(module_name, path)
        if getattr(getattr(holder, attr), WRAPPED_MARK, False):
            found.append(f"{module_name}.{path}")
    return found


class Tracer:
    """Spans and counters of one traced run; a context manager that installs
    the wrappers on entry and restores the originals on exit."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks[thread]
            # a worker thread's first span hangs under whatever the owning
            # thread has open (the CLI runs jobs on a pool thread)
            outer = stack or self._stacks[self._owner]
            parent = outer[-1].span_id if outer else None
            span = Span(len(self.spans) + 1, parent, name, self.run_id, thread, 0.0)
            self.spans.append(span)
            stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()

    @contextmanager
    def root(self, name: str = ROOT_SPAN):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str | None, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                observe(tracer.counters, args, kwargs, result, 0.0)
                return result
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result, span.end - span.start)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def __enter__(self) -> "Tracer":
        packages = [
            mod for key, mod in list(sys.modules.items())
            if key == "orbit_betti" or key.startswith("orbit_betti.")
        ]
        for module_name, path, name, observe in TARGETS:
            holder, attr = _resolve(module_name, path)
            original = getattr(holder, attr)
            wrapper = self._wrap(original, name, observe)
            holders = [holder]
            if isinstance(holder, types.ModuleType):
                holders = [m for m in packages if getattr(m, attr, None) is original]
            for h in holders:
                self._restore.append((h, attr, original))
                setattr(h, attr, wrapper)
        return self

    def __exit__(self, *exc) -> bool:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
        return False


# -- from spans to the per-layer table -----------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.span_id], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = max(span.end - span.start - covered, 0.0)
    return out


def layer_table(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer self times and counters of one traced root span."""
    table: dict[str, float] = defaultdict(float)
    for span_id, seconds in self_times(spans).items():
        table[SELF_METRIC[spans[span_id - 1].name]] += seconds
    table.update(counters)
    roots = [s for s in spans if s.parent is None]
    table["trace.wall_s"] = sum(s.end - s.start for s in roots)
    return dict(table)


def median_table(tables: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({key for table in tables for key in table})
    return {key: statistics.median(t.get(key, 0.0) for t in tables) for key in keys}
