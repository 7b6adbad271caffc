"""In-memory span tracing of the `orlicz` layers, installed from outside.

The tracer replaces the public functions of each layer module (and a few
named methods) with wrappers that record a span: name, start, end, parent
span and operation id, plus the rows a dense call received.  Every
OrliczFunction and Objective that a traced constructor returns gets its
evaluators wrapped the same way, so `M.eval`, `f.eval` and `f.eval_dense`
are layer boundaries too.  Nothing under `src/` changes; `uninstall`
restores every replaced attribute.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "functions", "sequences", "space", "weights", "objectives",
    "engine", "sampling", "wellposed", "probes", "cli",
)

# Methods traced besides each module's public functions: (module, class, method, span name).
_METHODS = (
    ("engine", "GridOracle", "grid", "engine.GridOracle.grid"),
    ("engine", "GridOracle", "evaluate", "engine.GridOracle.evaluate"),
    ("sampling", "BallSampler", "dense_points", "sampling.BallSampler.dense_points"),
    ("sequences", "SparseSequence", "from_pairs", "sequences.SparseSequence.from_pairs"),
    ("sequences", "SparseSequence", "__add__", "sequences.SparseSequence.merge"),
    ("sequences", "SparseSequence", "__sub__", "sequences.SparseSequence.merge"),
)

# Where a dense call keeps its row block among the positional arguments.
_ROWS_ARG = {
    "space.luxemburg_norm_dense": 1,
    "space.modular_dense": 1,
    "weights.g_eval_dense": 2,
    "objectives.eval_dense": 0,
}

# Span record layout.
NAME, START, END, PARENT, OP, ROWS, CELLS, M_CALLS, M_ELEMS = range(9)
FIELDS = ("name", "start", "end", "parent", "op", "rows", "cells", "m_calls", "m_elems")


def _shape(arr) -> tuple[int, int]:
    a = np.asarray(arr)
    if a.ndim == 0:
        return 1, 1
    if a.ndim == 1:
        return 1, a.shape[0]
    return a.shape[0], int(np.prod(a.shape[1:]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = 0
        self.enabled = True  # off while the benchmark checks outputs
        self._orlicz_types: tuple = ()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, wrap_result: bool = False):
        rows_at = _ROWS_ARG.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1][-1] if stack else -1, tracer.op, 0, 0, 0, 0, len(spans)]
            if rows_at is not None and len(args) > rows_at:
                rows, cols = _shape(args[rows_at])
                rec[ROWS], rec[CELLS] = rows, rows * cols
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if wrap_result:
                out = tracer.trace_value(out)
            return out

        traced.__traced__ = True
        return traced

    def _wrap_m_eval(self, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(t):
            if not tracer.enabled:
                return fn(t)
            n = int(np.size(t))
            for open_rec in stack:
                open_rec[M_CALLS] += 1
                open_rec[M_ELEMS] += n
            rec = ["functions.M_eval", 0.0, 0.0, stack[-1][-1] if stack else -1, tracer.op, n, n, 0, 0, len(spans)]
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(t)
            finally:
                rec[END] = clock()

        traced.__traced__ = True
        return traced

    def trace_value(self, value):
        """Wrap the evaluators of an OrliczFunction or Objective; pass others through."""
        OrliczFunction, Objective = self._orlicz_types
        if isinstance(value, OrliczFunction) and not getattr(value.eval, "__traced__", False):
            return dataclasses.replace(value, eval=self._wrap_m_eval(value.eval))
        if isinstance(value, Objective) and not getattr(value.eval, "__traced__", False):
            dense = value.eval_dense
            return dataclasses.replace(
                value,
                eval=self.wrap("objectives.eval", value.eval),
                eval_dense=None if dense is None else self.wrap("objectives.eval_dense", dense),
            )
        return value

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"orlicz.{name}") for name in LAYERS}
        self._orlicz_types = (mods["functions"].OrliczFunction, mods["engine"].Objective)
        namespaces = [m for k, m in sys.modules.items() if k == "orlicz" or k.startswith("orlicz.")]
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn, wrap_result=layer in ("functions", "objectives"))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapped)
        for layer, cls_name, meth, span_name in _METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.wrap(span_name, raw.__func__)))
            else:
                self._set(cls, meth, self.wrap(span_name, raw))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, rows, cells, and M.eval calls and elements inside."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        agg: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            a = agg.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "rows": 0, "cells": 0, "m_calls": 0, "m_elems": 0})
            a["calls"] += 1
            a["self_s"] += rec[END] - rec[START] - child[i]
            a["rows"] += rec[ROWS]
            a["cells"] += rec[CELLS]
            a["m_calls"] += rec[M_CALLS]
            a["m_elems"] += rec[M_ELEMS]
        return agg

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id," + ",".join(FIELDS) + "\n")
            for rec in self.spans:
                fh.write(f"{rec[-1]},{rec[NAME]},{rec[START]!r},{rec[END]!r},"
                         f"{rec[PARENT]},{rec[OP]},{rec[ROWS]},{rec[CELLS]},{rec[M_CALLS]},{rec[M_ELEMS]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit, how to read it from the aggregate and the workload's counters)
PER_LAYER = (
    ("functions.M_eval.calls", "count", lambda a, w: a("functions.M_eval", "calls")),
    ("functions.M_eval.elements", "count", lambda a, w: a("functions.M_eval", "rows")),
    ("functions.M_eval.self_s", "s", lambda a, w: a("functions.M_eval", "self_s")),
    ("space.luxemburg_norm_dense.calls", "count", lambda a, w: a("space.luxemburg_norm_dense", "calls")),
    ("space.luxemburg_norm_dense.rows", "count", lambda a, w: a("space.luxemburg_norm_dense", "rows")),
    ("space.luxemburg_norm_dense.self_s", "s", lambda a, w: a("space.luxemburg_norm_dense", "self_s")),
    ("space.luxemburg_norm_dense.passes_per_row", "ratio",
     lambda a, w: _ratio(a("space.luxemburg_norm_dense", "m_elems"), a("space.luxemburg_norm_dense", "cells"))),
    ("space.luxemburg_norm_dense.rows_per_grid_point", "ratio",
     lambda a, w: _ratio(a("space.luxemburg_norm_dense", "rows"), w["grid_points"])),
    ("space.luxemburg_norm.calls", "count", lambda a, w: a("space.luxemburg_norm", "calls")),
    ("space.luxemburg_norm.self_s", "s", lambda a, w: a("space.luxemburg_norm", "self_s")),
    ("space.luxemburg_norm.passes_per_call", "ratio",
     lambda a, w: _ratio(a("space.luxemburg_norm", "m_calls"), a("space.luxemburg_norm", "calls"))),
    ("space.modular_dense.self_s", "s", lambda a, w: a("space.modular_dense", "self_s")),
    ("weights.g_eval_dense.rows", "count", lambda a, w: a("weights.g_eval_dense", "rows")),
    ("weights.g_eval_dense.self_s", "s", lambda a, w: a("weights.g_eval_dense", "self_s")),
    ("weights.g_eval.calls", "count", lambda a, w: a("weights.g_eval", "calls")),
    ("weights.g_eval.self_s", "s", lambda a, w: a("weights.g_eval", "self_s")),
    ("objectives.eval_dense.rows_per_grid_point", "ratio",
     lambda a, w: _ratio(a("objectives.eval_dense", "rows"), w["grid_points"])),
    ("objectives.eval_dense.self_s", "s", lambda a, w: a("objectives.eval_dense", "self_s")),
    ("objectives.eval.calls", "count", lambda a, w: a("objectives.eval", "calls")),
    ("engine.GridOracle.grid.self_s", "s", lambda a, w: a("engine.GridOracle.grid", "self_s")),
    ("engine.GridOracle.evaluate.calls", "count", lambda a, w: a("engine.GridOracle.evaluate", "calls")),
    ("engine.GridOracle.evaluate.self_s", "s", lambda a, w: a("engine.GridOracle.evaluate", "self_s")),
    ("engine.perturb_minimize.self_s", "s", lambda a, w: a("engine.perturb_minimize", "self_s")),
    ("engine.construct_local_perturbation.self_s", "s",
     lambda a, w: a("engine.construct_local_perturbation", "self_s")),
    ("engine.rounds", "count", lambda a, w: w["engine_rounds"]),
    ("sampling.BallSampler.dense_points.self_s", "s", lambda a, w: a("sampling.BallSampler.dense_points", "self_s")),
    ("sampling.dense_to_sequences.calls", "count", lambda a, w: a("sampling.dense_to_sequences", "calls")),
    ("sampling.dense_to_sequences.self_s", "s", lambda a, w: a("sampling.dense_to_sequences", "self_s")),
    ("sequences.SparseSequence.from_pairs.calls", "count", lambda a, w: a("sequences.SparseSequence.from_pairs", "calls")),
    ("sequences.SparseSequence.from_pairs.self_s", "s", lambda a, w: a("sequences.SparseSequence.from_pairs", "self_s")),
    ("sequences.SparseSequence.merge.calls", "count", lambda a, w: a("sequences.SparseSequence.merge", "calls")),
    ("wellposed.wpmc_diagnose.self_s", "s", lambda a, w: a("wellposed.wpmc_diagnose", "self_s")),
    ("wellposed.kuratowski_estimate.self_s", "s", lambda a, w: a("wellposed.kuratowski_estimate", "self_s")),
    ("probes.probe_l1.self_s", "s", lambda a, w: a("probes.probe_l1", "self_s")),
    ("probes.classify_space.self_s", "s", lambda a, w: a("probes.classify_space", "self_s")),
    ("probes.second_difference.calls", "count", lambda a, w: a("probes.second_difference", "calls")),
    ("cli.main.self_s", "s", lambda a, w: a("cli.main", "self_s")),
)


def per_layer_metrics(agg: dict, counters: dict) -> dict[str, dict]:
    def read(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    return {name: {"value": fn(read, counters), "unit": unit} for name, unit, fn in PER_LAYER}
