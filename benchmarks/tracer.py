"""Span tracer for the traced benchmark run, and the per-layer metrics.

`Tracer.install` wraps every public function of the seven vandinv modules
and rebinds *every* name that refers to one, including the package
re-exports and the ``from .x import f`` copies inside other modules, so a
call through any binding opens a span.  `NodeSet.__post_init__` looks up
``validate_pairwise_distinct`` in its module globals, so the validation
behind each `NodeSet.drop` inside `esp_dropped` is traced too.

Spans live in memory as ``[name, parent, start, end, tag, failed]`` lists;
``parent`` is the index of the enclosing span (-1 at the top).  A span's
self time is its duration minus the durations of its children.  A
function metric adds the self time of same-layer callees: it is the
function's time minus the time spent in other layers beneath it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

import numpy as np

LAYERS = ("nodes", "esp", "vandermonde", "stability", "interpolation", "serialize", "cli")

NAME, PARENT, START, END, TAG, FAILED = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _esp_tag(method_pos):
    def tag(args, kwargs):
        return _arg(args, kwargs, method_pos, "method", "proposed"), len(args[0])

    return tag


def _size_tag(args, kwargs):
    return int(np.size(_arg(args, kwargs, 0, "values")))


# Call arguments recorded on the span (for ESP cost models and pair counts).
TAGS = {
    "esp.esp_dropped": _esp_tag(2),
    "esp.esp_all_orders": _esp_tag(1),
    "nodes.validate_pairwise_distinct": _size_tag,
}


def esp_ops(method: str, n_nodes: int, dropped: bool) -> int:
    """Complex add/multiply count of one ESP sweep over every order (computed).

    A dropped sweep runs on the m = N - 1 remaining nodes, except mikkawy,
    which recurses over all N slots with the dropped node parked in one.

    * proposed, order n over m nodes: step 0 sums the nodes (m ops); each of
      steps 1..n-1 scales, subtracts and multiplies per node and sums again
      (4m).  That is m(4n - 3); summed over n = 1..m it is 2m^3 - m^2, so a
      closed-form inverse (one sweep per row) is O(N^4).
    * traub table over m nodes: row k updates k entries with one multiply
      and one add, sum_k 2k = m(m + 1).
    * yang table over m nodes: row k adds, for each block length j < k, a
      (k - j)-entry axpy (2(k - j) ops) plus one block-product multiply:
      k^2 + 2k per row, m(m+1)(2m+1)/6 + m(m+1) in all.  This is O(N^3) per
      table, not the O(N^2) the esp module docstring states.
    * mikkawy over N slots: step n = 2..N updates n - 1 entries with one
      multiply and one add, sum 2(n - 1) = N(N - 1).  Dropped sweeps only.
    """
    if method == "mikkawy":
        if not dropped:
            raise ValueError("mikkawy computes dropped-node sweeps only")
        return n_nodes * (n_nodes - 1)
    m = n_nodes - 1 if dropped else n_nodes
    if method == "proposed":
        return 2 * m**3 - m**2
    if method == "traub":
        return m * (m + 1)
    if method == "yang":
        return m * (m + 1) * (2 * m + 1) // 6 + m * (m + 1)
    raise ValueError(f"no cost model for ESP backend {method!r}")


def validate_pairs(n: int) -> int:
    """Pair gaps one distinctness check forms (computed).

    `validate_pairwise_distinct` builds the full n x n matrix
    |v[:, None] - v[None, :]|, so n^2 gaps per call.
    """
    return n * n


class Tracer:
    """Wraps vandinv's public functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original)
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self.modules = [importlib.import_module("vandinv")] + [
            importlib.import_module(f"vandinv.{layer}") for layer in LAYERS
        ]
        for module, layer in zip(self.modules[1:], LAYERS):
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)
        writer = name.startswith("serialize.") and "_to_" in name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, False]
            if tag is not None:
                span[TAG] = tag(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if writer and not span[FAILED]:
                    span[TAG] = os.path.getsize(_arg(args, kwargs, 1, "path"))

        return traced

    def install(self) -> None:
        """Rebind every module attribute that names a wrapped function."""
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end, tag, failed."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart\tend\ttag\tfailed\n")
            for i, s in enumerate(self.spans):
                handle.write(
                    f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t"
                    f"{s[TAG]}\t{int(s[FAILED])}\n"
                )


def self_times(spans) -> tuple[list[float], list[float]]:
    """Per span: self time, and self time plus that of same-layer descendants."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    in_layer = own[:]
    for i in range(len(spans) - 1, -1, -1):  # children follow their parents
        p = spans[i][PARENT]
        if p >= 0 and spans[p][NAME].split(".")[0] == spans[i][NAME].split(".")[0]:
            in_layer[p] += in_layer[i]
    return own, in_layer


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, traced_walls, untraced_walls) -> dict[str, float]:
    """Per-layer metrics per round, averaged over the traced rounds."""
    rounds = len(traced_walls)
    own, in_layer = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(*names, method=None):
        out = [i for n in names for i in by_name.get(n, ())]
        if method is not None:
            out = [i for i in out if spans[i][TAG][0] == method]
        return out

    def fn_s(*names, method=None):
        return sum(in_layer[i] for i in idx(*names, method=method)) / rounds

    def count(*names):
        return len(idx(*names)) / rounds

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t for t, s in zip(own, spans) if s[NAME].startswith(layer + ".")) / rounds
        )

    sweeps = idx("esp.esp_dropped", "esp.esp_all_orders")
    ops = sum(esp_ops(*spans[i][TAG], spans[i][NAME] == "esp.esp_dropped") for i in sweeps)
    sweep_s = sum(in_layer[i] for i in sweeps)
    m["esp.dropped.proposed.self_s"] = fn_s("esp.esp_dropped", method="proposed")
    m["esp.dropped.traub.self_s"] = fn_s("esp.esp_dropped", method="traub")
    m["esp.all_orders.self_s"] = fn_s("esp.esp_all_orders")
    m["esp.proposed.calls"] = count("esp.esp_proposed")
    m["esp.ops_computed"] = ops / rounds
    m["esp.gops_per_s"] = ops / sweep_s / 1e9 if sweep_s > 0 else 0.0

    validate = idx("nodes.validate_pairwise_distinct")
    m["nodes.validate.calls"] = len(validate) / rounds
    m["nodes.validate.self_s"] = fn_s("nodes.validate_pairwise_distinct")
    m["nodes.validate.pairs_computed"] = (
        sum(validate_pairs(spans[i][TAG]) for i in validate) / rounds
    )
    m["nodes.generate.self_s"] = fn_s("nodes.generate_nodes", "nodes.perturb_roots_of_unity")

    inverses = idx("vandermonde.compute_inverse")
    inverse_ms = [1e3 * (spans[i][END] - spans[i][START]) for i in inverses]
    m["vandermonde.inverse.calls"] = len(inverses) / rounds
    m["vandermonde.inverse.self_s"] = fn_s("vandermonde.compute_inverse")
    m["vandermonde.inverse.p50_ms"] = _percentile(inverse_ms, 50)
    m["vandermonde.inverse.p90_ms"] = _percentile(inverse_ms, 90)
    m["vandermonde.weights.self_s"] = fn_s("vandermonde.barycentric_weights")
    m["vandermonde.lu.self_s"] = fn_s("vandermonde.inverse_elimination_baseline")
    m["vandermonde.build.self_s"] = fn_s("vandermonde.build_vandermonde")
    m["vandermonde.failed"] = sum(spans[i][FAILED] for i in inverses) / rounds

    m["stability.companion.self_s"] = fn_s("stability.companion_identity_nmse")
    m["stability.sweep.self_s"] = fn_s("stability.noise_sweep")
    m["interpolation.fit.self_s"] = fn_s("interpolation.fit_coefficients")
    m["interpolation.evaluate.self_s"] = fn_s("interpolation.evaluate_superresolved")

    writers = [n for n in by_name if n.startswith("serialize.") and "_to_" in n]
    m["serialize.write.self_s"] = fn_s(*writers)
    m["serialize.bytes"] = sum(spans[i][TAG] or 0 for i in idx(*writers)) / rounds

    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace.coverage"] = covered / sum(traced_walls)
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    m["trace.spans"] = len(spans) / rounds
    return m
