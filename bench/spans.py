"""Span tracer that measures the package's layers from outside.

The tracer wraps public functions of the package modules (and
``numpy.linalg.eigvalsh``) by replacing the module attributes the CLI and
the library look up at call time.  Each call records a span: name, start,
end, busy time, parent span and case id.  Spans stay in memory; the run
writes them out when it ends.

Self time of a span is its busy time minus the busy time of its children
on the same thread.  Batched eigensolves that run in sweep worker threads
are attached to the open sweep span, and the union of their intervals
counts as the sweep's child time.  So the self times of a case's
main-thread spans plus each sweep's worker-covered time add up to the
case's wall time.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

SWEEP_FUNCTIONS = ("sample_bands", "min_abs_eigenvalue", "iter_band_rows")
DEGENERACY_FUNCTIONS = ("coincident_group", "classify", "predict_moves", "count_moves")
CLI_COMMANDS = ("cmd_bands", "cmd_spectrum", "cmd_witness", "cmd_cq", "cmd_degeneracy", "cmd_counterexample")

# Real flops of one Q x Q complex Hermitian eigenvalue solve: the
# tridiagonal reduction (LAPACK zhetrd) dominates at 16/3 Q^3.
_FLOPS_PER_Q3 = 16.0 / 3.0


class Span:
    __slots__ = ("id", "name", "case", "parent", "start", "end", "busy", "child", "worker", "attrs", "intervals")

    def __init__(self, sid, name, case, parent, start, worker=False, attrs=None):
        self.id = sid
        self.name = name
        self.case = case
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.worker = worker
        self.attrs = attrs
        self.intervals = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "case": self.case,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "self": self.self_time,
            "worker": self.worker,
            "attrs": self.attrs or {},
        }


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _grid_and_workers(args, kwargs):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    return grid, workers


class Tracer:
    """Installs wrappers on the package modules and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case = None
        self._ids = itertools.count(1)  # next() is atomic, so worker threads may share it
        self._stack: list[Span] = []
        self._sweep: Span | None = None
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._last_sample = None
        self._in_json = False

    # -- span bookkeeping ---------------------------------------------------

    def _new(self, name, attrs=None, worker=False, parent=None):
        if parent is None and self._stack and not worker:
            parent = self._stack[-1].id
        return Span(next(self._ids), name, self.case, parent, time.perf_counter(), worker, attrs)

    def open(self, name, attrs=None) -> Span:
        span = self._new(name, attrs)
        self._stack.append(span)
        if attrs and attrs.get("sweep"):
            span.intervals = []
            self._sweep = span
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.busy += span.end - span.start
        self._finish(span)

    def _finish(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")
        if span.intervals:
            covered = _union_length(span.intervals)
            span.child += covered
            span.attrs["worker_covered"] = covered
        span.intervals = None
        if span is self._sweep:
            self._sweep = None
        if self._stack:
            self._stack[-1].child += span.busy
        self.spans.append(span)

    def resume(self, span: Span) -> float:
        """Make an aggregate span current again; returns the resume time."""
        self._stack.append(span)
        if span.attrs and span.attrs.get("sweep"):
            self._sweep = span
        return time.perf_counter()

    def pause(self, span: Span, since: float) -> None:
        now = time.perf_counter()
        span.busy += now - since
        span.end = now
        if self._stack.pop() is not span:
            raise RuntimeError(f"aggregate span {span.name} paused out of order")
        if span is self._sweep:
            self._sweep = None

    def finish_aggregate(self, span: Span) -> None:
        self._stack.append(span)
        self._finish(span)

    # -- wrappers -----------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper(original)))

    def install(self):
        from latticebands import bandedges, cli, counterexample, degeneracy, floquet, freebands

        self._patch(np.linalg, "eigvalsh", self._wrap_eigvalsh)
        for fn in ("sample_bands", "min_abs_eigenvalue"):
            self._patch(bandedges, fn, lambda orig, fn=fn: self._wrap_sweep(f"bandedges.{fn}", orig))
        self._patch(bandedges, "iter_band_rows", self._wrap_rows)
        self._patch(bandedges, "certified_edges", self._wrap_certified_edges)
        for fn in ("assemble", "eigenvalues_sorted_desc"):
            self._patch(floquet, fn, lambda orig, fn=fn: self._wrap_plain(f"floquet.{fn}", orig))
        self._patch(counterexample, "verify_gap_at_zero",
                    lambda orig: self._wrap_plain("counterexample.verify_gap_at_zero", orig))
        self._patch(freebands, "interior_witness",
                    lambda orig: self._wrap_plain("freebands.interior_witness", orig))
        for fn in DEGENERACY_FUNCTIONS:
            self._patch(degeneracy, fn, lambda orig, fn=fn: self._wrap_plain(f"degeneracy.{fn}", orig))
        for fn in CLI_COMMANDS:
            self._patch(cli, fn, lambda orig, fn=fn: self._wrap_plain(f"cli.{fn}", orig))
        self._patch(cli, "canonical_json", self._wrap_json)
        return self

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap_plain(self, name, orig):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _wrap_json(self, orig):
        def wrapper(obj):
            if self._in_json:
                return orig(obj)
            self._in_json = True
            span = self.open("cli.canonical_json")
            try:
                return orig(obj)
            finally:
                self.close(span)
                self._in_json = False
        return wrapper

    def _wrap_sweep(self, name, orig):
        def wrapper(*args, **kwargs):
            grid, workers = _grid_and_workers(args, kwargs)
            span = self.open(name, {"sweep": True, "nodes": grid.n_nodes, "workers": int(workers)})
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(span)
            if name == "bandedges.sample_bands":
                self._last_sample = result
            return result
        return wrapper

    def _wrap_rows(self, orig):
        def wrapper(*args, **kwargs):
            grid, _ = _grid_and_workers(args, kwargs)
            it = orig(*args, **kwargs)
            span = self._new("bandedges.iter_band_rows", {"sweep": True, "nodes": grid.n_nodes, "workers": 1})
            span.intervals = []
            try:
                while True:
                    since = self.resume(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.pause(span, since)
                    yield item
            finally:
                self.finish_aggregate(span)
        return wrapper

    def _wrap_certified_edges(self, orig):
        def wrapper(*args, **kwargs):
            self._last_sample = None
            span = self.open("bandedges.certified_edges")
            try:
                table = orig(*args, **kwargs)
            finally:
                self.close(span)
            sampled = self._last_sample
            if sampled is not None and table.refined:
                moved = int(np.count_nonzero(table.min_values != sampled.min_values))
                moved += int(np.count_nonzero(table.max_values != sampled.max_values))
                span.attrs = {"improved": moved, "extrema": 2 * table.Q}
            return table
        return wrapper

    def _wrap_eigvalsh(self, orig):
        # Single-matrix solves (refinement) are timed by the floquet spans
        # around them; only batched sweep solves get spans of their own.
        def wrapper(a, *args, **kwargs):
            if getattr(a, "ndim", 0) != 3:
                return orig(a, *args, **kwargs)
            attrs = {"matrices": a.shape[0], "Q": a.shape[-1]}
            if threading.get_ident() == self._main:
                span = self.open("numpy.eigvalsh.batched", attrs)
                try:
                    return orig(a, *args, **kwargs)
                finally:
                    self.close(span)
            sweep = self._sweep
            span = self._new("numpy.eigvalsh.batched", attrs, worker=True, parent=sweep.id if sweep else None)
            try:
                return orig(a, *args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                if sweep is not None:
                    sweep.intervals.append((span.start, span.end))
                self.spans.append(span)
        return wrapper

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def case_spans(spans):
    """Group spans by case id, keeping creation order."""
    out: dict = {}
    for s in spans:
        out.setdefault(s.case, []).append(s)
    return out


def layer_metrics(spans, case_ids) -> dict:
    """Per-layer metrics, as means per traced case (ratios as ratios of sums).

    case_ids lists the traced cases; each must have one root span named
    "case" whose busy time is the case's wall time.
    """
    by_case = case_spans(spans)
    n = max(1, len(case_ids))
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    sweep_weighted = 0.0
    improved = extrema = 0
    for cid in case_ids:
        group = by_case.get(cid, [])
        by_id = {s.id: s for s in group}

        def ancestors(s):
            p = by_id.get(s.parent)
            while p is not None:
                yield p
                p = by_id.get(p.parent)

        for s in group:
            name = s.name
            if name == "case":
                add("case_s", s.busy)
            elif name.startswith("bandedges.") and name[len("bandedges."):] in SWEEP_FUNCTIONS:
                add("bandedges.sweep.count", 1)
                add("bandedges.sweep.nodes", s.attrs["nodes"])
                add("bandedges.sweep.busy_s", s.busy)
                add("bandedges.sweep.other_s", s.self_time)
                sweep_weighted += s.busy * s.attrs["workers"]
                if name == "bandedges.iter_band_rows":
                    add("bandedges.iter_band_rows.busy_s", s.busy)
            elif name == "numpy.eigvalsh.batched":
                q = s.attrs["Q"]
                m = s.attrs["matrices"]
                add("bandedges.sweep.eigensolve_s", s.busy)
                add("bandedges.sweep.matrices", m)
                add("bandedges.sweep.flops_computed", m * _FLOPS_PER_Q3 * q**3)
                add("bandedges.sweep.bytes_computed", m * (16 * q * q + 8 * q))
            elif name == "bandedges.certified_edges":
                sampled = sum(c.busy for c in group if c.parent == s.id and c.name == "bandedges.sample_bands")
                add("bandedges.refine.busy_s", s.busy - sampled)
                if s.attrs:
                    improved += s.attrs["improved"]
                    extrema += s.attrs["extrema"]
            elif name in ("floquet.assemble", "floquet.eigenvalues_sorted_desc"):
                add(f"{name}.calls", 1)
                add(f"{name}.busy_s", s.busy)
                if name == "floquet.assemble" and any(a.name == "bandedges.certified_edges" for a in ancestors(s)):
                    add("bandedges.refine.probes", 1)
            elif name == "counterexample.verify_gap_at_zero":
                add(f"{name}.busy_s", s.busy)
                add("layer.counterexample_self_s", s.self_time)
            elif name == "freebands.interior_witness":
                add(f"{name}.self_s", s.self_time)
            elif name.startswith("degeneracy."):
                parent = by_id.get(s.parent)
                if parent is None or not parent.name.startswith("degeneracy."):
                    add("degeneracy.calls", 1)
                    add("degeneracy.busy_s", s.busy)
            elif name == "cli.canonical_json":
                add("cli.serialize.busy_s", s.busy)
            elif name.startswith("cli.cmd_"):
                add("layer.cli_self_s", s.self_time)
                if name == "cli.cmd_bands":
                    add("cli.csv.busy_s", s.self_time)

    metrics = {k: v / n for k, v in tot.items() if k != "case_s"}
    case_s = tot.get("case_s", 0.0)
    busy_sweep = tot.get("bandedges.sweep.busy_s", 0.0)
    metrics["bandedges.sweep.thread_util"] = (
        tot.get("bandedges.sweep.eigensolve_s", 0.0) / sweep_weighted if sweep_weighted else 0.0
    )
    metrics["bandedges.refine.improved_share"] = improved / extrema if extrema else 0.0
    shares = {
        "sweep": busy_sweep,
        "refine": tot.get("bandedges.refine.busy_s", 0.0),
        "cli": tot.get("layer.cli_self_s", 0.0) + tot.get("cli.serialize.busy_s", 0.0),
        "degeneracy": tot.get("degeneracy.busy_s", 0.0),
        "freebands": tot.get("freebands.interior_witness.self_s", 0.0),
        "counterexample": tot.get("layer.counterexample_self_s", 0.0),
    }
    for layer, value in shares.items():
        metrics[f"share.{layer}"] = value / case_s if case_s else 0.0
    rows_csv = tot.get("bandedges.iter_band_rows.busy_s", 0.0) + tot.get("cli.csv.busy_s", 0.0)
    metrics["share.rows_csv"] = rows_csv / case_s if case_s else 0.0
    metrics.pop("layer.cli_self_s", None)
    metrics.pop("layer.counterexample_self_s", None)
    return metrics


def self_time_residual(spans, case_ids) -> float:
    """Largest |sum of self times - case time| / case time over the cases.

    The sum runs over main-thread spans plus, for each sweep, the time its
    worker-thread eigensolves covered (which the sweep's self time excludes).
    """
    by_case = case_spans(spans)
    worst = 0.0
    for cid in case_ids:
        group = [s for s in by_case.get(cid, []) if not s.worker]
        root = [s for s in group if s.name == "case"]
        if len(root) != 1:
            return float("inf")
        total = sum(s.self_time + (s.attrs or {}).get("worker_covered", 0.0) for s in group)
        worst = max(worst, abs(total - root[0].busy) / root[0].busy)
    return worst
