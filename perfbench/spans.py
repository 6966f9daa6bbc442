"""Span tracing of dexpou's public functions for the benchmark's traced run.

Each traced function is replaced, in every ``dexpou`` module whose namespace
refers to it, by a wrapper that records a span: name, parent span, op index,
start and end.  Callers look the names up in those namespaces at call time
(``estimate_all`` finds ``empirical_moments`` in ``dexpou.estimate``,
``sigma_matrix`` finds ``jacobian_h`` in ``dexpou.asymptotics``, ``cmd_estimate``
finds ``read_path_csv`` in ``dexpou.cli``), so nested calls are traced without
touching the package source.  :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory; :meth:`Tracer.write` saves them once the run is over.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import tracemalloc
from time import perf_counter

# Span names are "<module>.<function>" of the defining dexpou module.
TRACED = (
    "simulate.simulate_path",
    "estimate.estimate_all",
    "estimate.empirical_moments",
    "estimate.solve_p",
    "model.analytic_moments",
    "model.jacobian_h",
    "model.jacobian_tilde_h",
    "asymptotics.covariance_estimate",
    "asymptotics.observable_series",
    "asymptotics.long_run_cov",
    "asymptotics.sigma_matrix",
    "asymptotics.confidence_intervals",
    "pathio.write_path_csv",
    "pathio.write_metadata",
    "pathio.read_path_csv",
    "cli.cmd_simulate",
    "cli.cmd_estimate",
)
# Spans whose self time (duration minus child spans) is reported.
SELF_TIMED = ("estimate.estimate_all", "cli.cmd_simulate", "cli.cmd_estimate")
# Reported per call over every traced call, set-up included: long_fit
# simulates only while it sets up.
PER_CALL = "simulate.simulate_path"
SETUP_OP = -1  # op index of spans recorded while the workload sets up
# Its peak allocation is measured by :meth:`Tracer.measure_alloc`.
ALLOC_TRACED = "asymptotics.long_run_cov"
# EstimationError stages (dexpou.errors) that a pipeline call can raise.
ERROR_STAGES = ("theta", "f", "solve_p", "recover", "sigma", "long_run_cov")


def _simulate_extra(args, kwargs, result):
    return {"steps": result.burn_in + len(result.values),
            "n": len(result.values)}


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


# Counts taken after a call returns, outside its span.
EXTRAS = {
    "simulate.simulate_path": _simulate_extra,
    "pathio.write_path_csv": lambda args, kwargs, result: _file_bytes(result),
    "pathio.read_path_csv": lambda args, kwargs, result: _file_bytes(args[0]),
}


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "stage", "extra")

    def __init__(self, span_id, parent, name, op):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.start = self.end = 0.0
        self.stage = None
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the functions in :data:`TRACED` while installed."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._wrappers = {}
        self._patches = []
        self._alloc_call = None
        self.alloc_peak_bytes = None
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(sys.modules["dexpou." + module], func)
            self._wrappers[name] = (original, self._wrap(name, original))

    def _wrap(self, name, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                # Attribute the error to the innermost traced call only.
                if not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    span.stage = exc.stage
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if extra_of is not None:
                span.extra = extra_of(args, kwargs, result)
            if name == ALLOC_TRACED:
                self._alloc_call = (args, kwargs)
            return result

        return wrapper

    def measure_alloc(self) -> None:
        """Repeat the last traced :data:`ALLOC_TRACED` call under tracemalloc
        and keep its peak.  Doing it apart from the ops keeps tracemalloc's
        cost out of every span."""
        if self._alloc_call is None:
            return
        args, kwargs = self._alloc_call
        self._alloc_call = None
        original = self._wrappers[ALLOC_TRACED][0]
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            self.alloc_peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def install(self) -> None:
        """Point every dexpou name bound to a traced function at its wrapper."""
        targets = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dexpou" and not mod_name.startswith("dexpou."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def summary(self, ops) -> dict:
        """Per-layer metrics over the traced ops (op indices in ``ops``).

        ``busy_s`` and ``self_s`` are medians over ops of the time per op,
        except for :data:`PER_CALL`; ``calls`` is calls per op; failures are
        totals.  A function that an op never reaches reports 0.
        """
        ops = set(ops)
        if not ops:
            raise ValueError("no traced ops")
        spans = [s for s in self.spans if s.op in ops]
        sims = [s for s in self.spans if s.name == PER_CALL
                and (s.op in ops or s.op == SETUP_OP) and s.extra]
        child_time = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        busy = {name: {op: 0.0 for op in ops} for name in TRACED}
        self_t = {name: {op: 0.0 for op in ops} for name in SELF_TIMED}
        calls = dict.fromkeys(TRACED, 0)
        for s in spans:
            busy[s.name][s.op] += s.duration
            calls[s.name] += 1
            if s.name in self_t:
                self_t[s.name][s.op] += s.duration - child_time.get(s.id, 0.0)

        def med(values, default=0.0):
            values = list(values)
            return statistics.median(values) if values else default

        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / len(ops)
            out[f"{name}.busy_s"] = med(busy[name].values())
        out[f"{PER_CALL}.busy_s"] = med(s.duration for s in sims)
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = med(self_t[name].values())

        out[f"{ALLOC_TRACED}.alloc_peak_mb"] = (self.alloc_peak_bytes or 0) / 2**20
        out[f"{PER_CALL}.steps"] = med(s.extra["steps"] for s in sims)
        out["simulate.useful_step_frac"] = med(
            s.extra["n"] / s.extra["steps"] for s in sims)
        for name in ("pathio.write_path_csv", "pathio.read_path_csv"):
            out[f"{name}.mb_per_s"] = med(
                s.extra["bytes"] / 1e6 / s.duration
                for s in spans if s.name == name and s.extra)

        failed_ops = {s.op for s in spans
                      if s.stage is not None and s.name.startswith("estimate.")}
        out["estimate.failed"] = len(failed_ops)
        for stage in ERROR_STAGES:
            out[f"errors.{stage}.failed"] = sum(
                1 for s in spans if s.stage == stage)
        return out

    def write(self, path) -> None:
        """Save every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"id": s.id, "parent": s.parent, "name": s.name,
                          "op": s.op, "start": s.start, "end": s.end}
                if s.stage is not None:
                    record["error_stage"] = s.stage
                if s.extra:
                    record.update(s.extra)
                fh.write(json.dumps(record) + "\n")
