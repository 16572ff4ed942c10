"""Pass-through span recorders around hyperprop's public functions.

`tracing` replaces every function named in a ``hyperprop.*`` module's
``__all__``, wherever that function object is bound in any
``hyperprop.*`` namespace, plus ``Hypergraph.from_edges``, with a
wrapper that records a span: name, start, end and parent.  A few
wrappers also attach counts computed from argument and result shapes
(so they repeat exactly) or the growth of the process's peak RSS across
the call.  Spans stay in memory until `Recorder.dump`.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so the children
lie inside the parent's interval and the self times of a tree add up to
its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import resource
import sys
import time
from contextlib import contextmanager


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mlp_weight_flops(params) -> int:
    """Multiply-adds of one row through every layer, times two."""
    return 2 * sum(w.shape[0] * w.shape[1] for w in params.weights)


def _backward_flops(a, _result) -> int:
    # grads_w[i] = a_{i-1}.T @ delta for every layer, and delta @ W_i.T for
    # every layer but the first.
    rows = a["grad_logits"].shape[0]
    first = a["params"].weights[0]
    return rows * (2 * _mlp_weight_flops(a["params"]) - 2 * first.shape[0] * first.shape[1])


# Span name -> function of (bound arguments, result) giving counts.
COUNTERS = {
    "core.load_hypergraph": lambda a, r: {"core.incidences_parsed": sum(map(len, r.edges))},
    "expansion.normalize_with_self_loops": lambda a, r: {
        "expansion.operator_builds": 1,
        "expansion.nnz": r.matrix.nnz,
    },
    "propagation.propagate": lambda a, r: {
        "propagation.spmm_flops": 2 * a["atilde"].matrix.nnz * r.matrix.shape[1] * a["cfg"].layers
    },
    "propagation.save_propagated": lambda a, r: {
        "propagation.bytes_written": os.path.getsize(a["path"])
    },
    "propagation.load_propagated": lambda a, r: {
        "propagation.bytes_read": os.path.getsize(a["path"])
    },
    "tasks.negative_sample": lambda a, r: {"tasks.negatives_drawn": len(r.negatives)},
    "tasks.pool_candidates": lambda a, r: {"tasks.candidates_pooled": len(a["candidates"])},
    "tasks.train_node_classifier": lambda a, r: {"tasks.epochs": a["cfg"].epochs},
    "tasks.train_hyperlink_predictor": lambda a, r: {"tasks.epochs": a["cfg"].epochs},
    "nn.mlp_forward": lambda a, r: {
        "nn.forward_rows": len(a["x"]),
        "nn.gemm_flops": len(a["x"]) * _mlp_weight_flops(a["params"]),
    },
    "nn.mlp_backward": lambda a, r: {"nn.gemm_flops": _backward_flops(a, r)},
}

# Span name -> metric holding the growth of the peak RSS across the call.
RSS_GROWTH = {
    "propagation.propagate": "propagation.propagate_rss_mb",
    "propagation.load_propagated": "propagation.load_rss_mb",
}


class Recorder:
    """In-memory span list; each span is a dict with name, start, end,
    parent (index into the list, -1 for a root) and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        rss_metric = RSS_GROWTH.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else -1,
                "start": 0.0,
                "end": 0.0,
                "counts": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss_before = _maxrss_mb() if rss_metric else 0.0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"].update(counter(bound.arguments, result))
            if rss_metric:
                span["counts"][rss_metric] = _maxrss_mb() - rss_before
            return result

        return recorded

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('hyperprop.')}.{fn.__qualname__}"


def _hyperprop_modules() -> list:
    package = importlib.import_module("hyperprop")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"hyperprop.{info.name}")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "hyperprop" or name.startswith("hyperprop.")
    ]


@contextmanager
def tracing(recorder: Recorder):
    """Install the recorders for the duration of the block, then restore
    every binding it replaced."""
    modules = _hyperprop_modules()
    public = {}
    for mod in modules:
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                public[id(obj)] = obj
    wrappers = {key: recorder.wrap(fn, _span_name(fn)) for key, fn in public.items()}
    replaced = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and obj is public[id(obj)]:
                replaced.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    hypergraph = sys.modules["hyperprop.core"].Hypergraph
    from_edges = hypergraph.__dict__["from_edges"]
    hypergraph.from_edges = classmethod(recorder.wrap(from_edges.__func__, "core.Hypergraph.from_edges"))
    try:
        yield recorder
    finally:
        hypergraph.from_edges = from_edges
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
