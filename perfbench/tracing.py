"""Per-layer spans, recorded from the benchmark's own files.

Each hooked function is wrapped at every name a caller looks it up by:
modules import by name, so ``semidegree.graphs.in_semigroup`` is wrapped as
well as ``semidegree.semigroups.in_semigroup``.  Methods are wrapped on
their class.  A wrapper records one span per call (name, start, end, parent
span, operation id) while the tracer is active, plus counts taken from the
call's arguments and result.  A hook whose name is missing is recorded as
absent and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _terms(series) -> int:
    return len(series._terms)


def _xi_mul_counts(args, result):
    return {
        "algebra.xiseries_mul.term_products": _terms(args[0]) * _terms(args[1]),
        "algebra.xiseries_mul.max_terms_out": ("max", _terms(result)),
    }


# (layer name, module, attribute, counter); counter(args, result) returns
# {metric name: amount to add, or ("max", value)}
FUNCTIONS = [
    ("keyforms.compute_key_forms", "keyforms", "compute_key_forms",
     lambda args, res: {"keyforms.steps": len(res.forms) - 1}),
    ("keyforms.represent", "keyforms", "represent", None),
    ("decide.decide_algebraic", "decide", "decide_algebraic", None),
    ("puiseux.formal_pairs", "puiseux", "formal_pairs", None),
    ("semigroups.in_semigroup", "semigroups", "in_semigroup",
     lambda args, res: {"semigroups.in_semigroup.dp_cells": max(args[0] + 1, 0) * len(args[1])}),
    ("semigroups.in_group", "semigroups", "in_group", None),
    ("graphs.s2", "graphs", "s2", None),
    ("graphs.classify", "graphs", "classify", None),
    ("graphs.is_negative_definite", "graphs", "is_negative_definite",
     lambda args, res: {"graphs.is_negative_definite.matrix_dim_sum": len(args[0])}),
    ("graphs.resolution_graph", "graphs", "resolution_graph", None),
    ("graphs.witness", "graphs", "algebraic_witness", None),
    ("graphs.witness", "graphs", "nonalgebraic_witness", None),
    ("algebra.monomial_product", "algebra", "monomial_product", None),
    ("algebra.substitute", "algebra", "substitute", None),
    ("parsing.parse_dps", "parsing", "parse_dps", None),
    ("parsing.parse_laurent", "parsing", "parse_laurent", None),
    ("parsing.laurent_to_str", "parsing", "laurent_to_str", None),
    ("parsing.dps_to_str", "parsing", "dps_to_str", None),
    ("cli.main", "cli", "main", None),
    ("cli.run_line", "cli", "run_line", lambda args, res: {"cli.run_line.failed": int(res[0] != 0)}),
]

# (layer name, module, class, method, counter)
METHODS = [
    ("algebra.xiseries_mul", "algebra", "XiSeries", "__mul__", _xi_mul_counts),
    ("algebra.xiseries_pow", "algebra", "XiSeries", "__pow__", None),
    ("algebra.laurent_mul", "algebra", "LaurentPoly", "__mul__",
     lambda args, res: {"algebra.laurent_mul.term_products": len(args[0]) * len(args[1])}),
]

# Per-layer metrics reported by a traced run, with their units.
METRICS = [
    ("algebra.xiseries_mul.calls", "count"),
    ("algebra.xiseries_mul.busy_ms", "ms"),
    ("algebra.xiseries_mul.term_products", "count"),
    ("algebra.xiseries_mul.max_terms_out", "count"),
    ("algebra.xiseries_pow.busy_ms", "ms"),
    ("keyforms.compute_key_forms.calls", "count"),
    ("keyforms.compute_key_forms.busy_ms", "ms"),
    ("keyforms.compute_key_forms.self_ms", "ms"),
    ("keyforms.steps", "count"),
    ("keyforms.represent.calls", "count"),
    ("keyforms.represent.busy_ms", "ms"),
    ("decide.decide_algebraic.self_ms", "ms"),
    ("puiseux.formal_pairs.calls", "count"),
    ("puiseux.formal_pairs.busy_ms", "ms"),
    ("semigroups.in_semigroup.calls", "count"),
    ("semigroups.in_semigroup.busy_ms", "ms"),
    ("semigroups.in_semigroup.dp_cells", "count"),
    ("semigroups.in_group.calls", "count"),
    ("semigroups.in_group.busy_ms", "ms"),
    ("graphs.s2.busy_ms", "ms"),
    ("graphs.classify.self_ms", "ms"),
    ("graphs.is_negative_definite.calls", "count"),
    ("graphs.is_negative_definite.busy_ms", "ms"),
    ("graphs.is_negative_definite.matrix_dim_sum", "count"),
    ("graphs.resolution_graph.busy_ms", "ms"),
    ("graphs.witness.busy_ms", "ms"),
    ("algebra.laurent_mul.calls", "count"),
    ("algebra.laurent_mul.busy_ms", "ms"),
    ("algebra.laurent_mul.term_products", "count"),
    ("algebra.monomial_product.busy_ms", "ms"),
    ("algebra.substitute.calls", "count"),
    ("algebra.substitute.busy_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.run_line.calls", "count"),
    ("cli.run_line.failed", "count"),
    ("parsing.parse_dps.busy_ms", "ms"),
    ("parsing.parse_laurent.busy_ms", "ms"),
    ("parsing.laurent_to_str.busy_ms", "ms"),
    ("parsing.dps_to_str.busy_ms", "ms"),
    ("trace.ops_per_s_plain", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("raw.ops_per_s", "1/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_p90_ms", "ms"),
]

# metric name -> layer it belongs to, for marking absent layers
_COUNTER_LAYER = {"keyforms.steps": "keyforms.compute_key_forms"}


def layer_of(metric: str) -> str:
    return _COUNTER_LAYER.get(metric, metric.rsplit(".", 1)[0])


def _module(name: str):
    """The package module, or None once a refactor has removed it."""
    try:
        return importlib.import_module(f"semidegree.{name}")
    except ImportError:
        return None


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # span recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, values: dict) -> None:
        for name, value in values.items():
            if isinstance(value, tuple):  # ("max", v)
                self.counters[name] = max(self.counters.get(name, 0), value[1])
            else:
                self.counters[name] = self.counters.get(name, 0) + value

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # hooks ----------------------------------------------------------------

    def _wrap(self, layer: str, func, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            index = tracer.open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                try:
                    tracer.count(counter(args, result))
                except (AttributeError, TypeError):
                    # the counted attribute moved: drop the layer, keep the run
                    tracer.absent.add(layer)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "semidegree" or name.startswith("semidegree.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, module_name, attr, counter in FUNCTIONS:
            original = getattr(_module(module_name), attr, None)
            if original is None:
                self.absent.add(layer)
                continue
            self._replace_everywhere(original, self._wrap(layer, original, counter))
        for layer, module_name, cls_name, method, counter in METHODS:
            cls = getattr(_module(module_name), cls_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.absent.add(layer)
                continue
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(layer, original, counter))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def aggregate(tracer: Tracer, scale: float) -> dict[str, float]:
    """calls, busy_ms and self_ms per layer, plus the counters.  Times are
    multiplied by ``scale`` (the machine-speed correction)."""
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0.0) + selfs[i] * 1000 * scale
        # busy time counts a nested call of the same layer once
        outer, p = True, parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            out[f"{name}.busy_ms"] = out.get(f"{name}.busy_ms", 0.0) + (end - start) * 1000 * scale
    out.update(tracer.counters)
    return out


def layer_metrics(aggregated: dict[str, float], absent: set[str]) -> dict[str, float]:
    """Values for the METRICS list, 0 where a present layer was never called;
    metrics of absent layers are left out."""
    out = {}
    for name, _unit in METRICS:
        if name.startswith(("trace.", "raw.")) or layer_of(name) in absent:
            continue
        out[name] = aggregated.get(name, 0)
    return out


def write_spans(path, tracer: Tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, op]
        for n, s, e, p, op in tracer.spans
    ]
    path.write_text(json.dumps({"names": names, "columns": ["name", "start_us", "end_us", "parent", "op"], "spans": rows}))

