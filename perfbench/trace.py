"""Span tracing for the traced benchmark run.

Spans are recorded only from benchmark code: :class:`Tracer` wraps the
public functions and methods at each layer boundary of the program
(routing, fabric, solver kernels, Eq. 2 allocation, pipeline,
controller, library, RPC bus, service, cluster runtime) plus the
benchmark's own traffic clients.  Each call becomes one span -- name,
start, end, parent span and request id -- appended to flat in-memory
arrays and written out only when the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover; summing self time by layer over a repetition's
root span splits the repetition's host time exactly, with the root's
own self time being the harness itself.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

#: Span name of a repetition's root, whose self time is the harness.
ROOT = "bench"

#: Solvers ``optimize_weights`` reports in its ``stats`` dict; a
#: per-solver target records each call as ``<span prefix>.<solver>``.
SOLVERS = ("kkt", "slsqp", "direct", "equal")


class Target(NamedTuple):
    """One function or method the traced run wraps."""

    #: Class or module the attribute is patched on.
    owner: object
    attr: str
    #: Span name, ``<layer short name>.<function>``.
    span: str
    #: Layer (module) the span's self time is booked to.
    layer: str
    #: ``"calls"``: report calls and self time; ``"self"``: self time
    #: only; ``"solver"``: like ``"calls"``, for the sum and for each
    #: solver in :data:`SOLVERS` (``span`` is then ``<prefix>.<function>``).
    report: str = "calls"


def solver_span(target: Target, solver: str) -> str:
    """Span name of a per-solver target's call that ran ``solver``."""
    return f"{target.span.rsplit('.', 1)[0]}.{solver}"


def layer_of(targets: Iterable[Target]) -> Dict[str, str]:
    """Layer of every span name the targets (and the root) record."""
    out = {ROOT: ROOT}
    for t in targets:
        out[t.span] = t.layer
        if t.report == "solver":
            for solver in SOLVERS:
                out[solver_span(t, solver)] = t.layer
    return out


def reported_spans(targets: Iterable[Target]) -> Tuple[List[str], List[str]]:
    """Span names whose calls and self time are reported, and span
    names whose self time alone is, in target order (the root last)."""
    calls: List[str] = []
    self_only: List[str] = []
    for t in targets:
        names = [t.span]
        if t.report == "solver":
            names += [solver_span(t, solver) for solver in SOLVERS]
        dest = self_only if t.report == "self" else calls
        dest.extend(n for n in names if n not in dest)
    return calls, self_only + [ROOT]


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Self time of every span: duration minus the union of the parts
    of its interval that its direct children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``.
    Children may come in any order and may overlap one another; a
    child sticking out of its parent only covers the overlap.
    """
    n = len(starts)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            children.setdefault(p, []).append((lo, hi))
    out = [ends[i] - starts[i] for i in range(n)]
    for p, intervals in children.items():
        intervals.sort()
        covered = 0.0
        run_lo, run_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > run_hi:
                covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            elif hi > run_hi:
                run_hi = hi
        covered += run_hi - run_lo
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder plus method wrappers.

    ``install`` patches the given owners (classes or modules) so every
    call records a span; ``uninstall`` restores the originals.  Objects
    built while installed keep the wrapped methods only where they
    bound them eagerly (the RPC bus stores bound methods), so build a
    scenario after ``install`` to trace it.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.request = array("q")
        self._stack: List[int] = []
        #: Request id stamped on spans begun from now on.
        self.request_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        #: Layer of every span name of the installed targets.
        self.layer_of: Dict[str, str] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0

    # -- recording ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name_id.append(self._intern(name))
        self.request.append(self.request_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def traced(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call."""
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return wrapper

    def traced_solver(self, fn: Callable, target: Target) -> Callable:
        """``optimize_weights`` recording a span named after the solver
        that actually ran (read back from its ``stats`` dict); a call
        naming none of :data:`SOLVERS` keeps the target's span name."""
        begin, finish, names = self.begin, self.finish, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            idx = begin(target.span)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)
                solver = stats.get("solver")
                if solver in SOLVERS:
                    names[idx] = self._intern(solver_span(target, solver))

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target."""
        for t in targets:
            fn = vars(t.owner)[t.attr]
            if t.report == "solver":
                self.patch(t.owner, t.attr, self.traced_solver(fn, t))
            else:
                self.patch(t.owner, t.attr, self.traced(fn, t.span))
        self.layer_of.update(layer_of(targets))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_t0

    # -- reading --------------------------------------------------------------

    def by_name(self, first: int = 0) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, total self seconds)}`` over the spans
        recorded from index ``first`` on (one repetition's spans)."""
        end = len(self.start)
        parents = [p - first if p >= first else -1 for p in self.parent[first:end]]
        selfs = self_times(self.start[first:end], self.end[first:end], parents)
        out: Dict[str, Tuple[int, float]] = {}
        for offset, s in enumerate(selfs):
            name = self.names[self.name_id[first + offset]]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        names = self.names
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "name": names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "request": self.request[i],
                }))
                handle.write("\n")
        return len(self.start)


def layer_table(
    totals: Dict[str, Tuple[int, float]], host_s: float,
    layers_of: Dict[str, str],
) -> List[Dict[str, object]]:
    """Rows of ``layer, calls, self_s, share`` for the span totals,
    largest self time first; ``layers_of`` maps span names to layers."""
    layers: Dict[str, List[float]] = {}
    for name, (calls, self_s) in totals.items():
        row = layers.setdefault(layers_of.get(name, name), [0, 0.0])
        row[0] += calls
        row[1] += self_s
    rows = [
        {"layer": layer, "calls": int(calls), "self_s": self_s,
         "share": self_s / host_s if host_s > 0 else 0.0}
        for layer, (calls, self_s) in layers.items()
    ]
    rows.sort(key=lambda row: -row["self_s"])
    return rows


def root_seconds(tracer: Tracer, first: int = 0) -> float:
    """Summed duration of the root spans recorded from ``first`` on."""
    return sum(
        tracer.end[i] - tracer.start[i]
        for i in range(first, len(tracer.start))
        if tracer.parent[i] < 0
    )


__all__ = [
    "ROOT",
    "SOLVERS",
    "Target",
    "Tracer",
    "layer_of",
    "layer_table",
    "reported_spans",
    "root_seconds",
    "self_times",
]
