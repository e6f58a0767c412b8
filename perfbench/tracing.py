"""Spans around nearstat's layer boundaries, recorded from the benchmark process.

:func:`install` wraps the public functions of each layer and rebinds every
name under which nearstat modules hold them (``solvers`` imports
``min_norm_point`` by name, ``harness`` imports ``play``, class bodies alias
``__call__ = eval``), so calls are seen whichever name the caller used.
Nothing under ``src/`` changes: the wrappers live only in this process and
:func:`uninstall` puts the originals back.

A span is (id, name, parent id, start, end).  A layer's self time is its
span's duration minus the time its child spans cover.  A call made from
inside a span of the same layer (``sample_ball`` calling ``sample_sphere``,
the scalar ``eval`` calling ``eval_batch``) opens no span of its own, so it
counts toward the outer call's self time and not as a separate call.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Per-layer counters besides calls and self time, each read from the call's
# arguments and result after the span has closed.
ITEMS = {
    "harness.write_report_files": lambda a, kw, r: {"bytes": sum(os.path.getsize(p) for p in r)},
    "harness.figure_csv": lambda a, kw, r: {"rows": r.count("\n") - 1},
    "oracle_game.play": lambda a, kw, r: {"queries": len(r)},
    "oracle_game.transcript_io": lambda a, kw, r: {
        # to_jsonl returns the text; from_jsonl(cls, text) receives it
        "bytes": len(r) if isinstance(r, str) else len(a[1] if len(a) > 1 else kw["text"])
    },
    "zoo.eval_batch": lambda a, kw, r: {"rows": len(r[0])},
    "stationarity.min_norm_point": lambda a, kw, r: {
        "points": len(r.coefficients),
        "iterations": r.iterations,
        "unconverged": int(not r.converged),
    },
}

# layer name -> (module, attribute path) of every function it wraps
TARGETS = {
    "cli.main": [("cli", "main")],
    "harness.run_experiment": [("harness", "run_experiment")],
    "harness.write_report_files": [("harness", "write_report_files")],
    "harness.certify_point": [("harness", "certify_point")],
    "harness.build_adversary_files": [("harness", "build_adversary_files")],
    "harness.run_verify": [("harness", "run_verify")],
    "harness.figure_csv": [("harness", "figure_csv")],
    "oracle_game.play": [("oracle_game", "play")],
    "oracle_game.transcript_io": [
        ("oracle_game", "Transcript.to_jsonl"),
        ("oracle_game", "Transcript.from_jsonl"),
    ],
    "oracle_game.validate_span": [("oracle_game", "validate_span")],
    "adversaries.build_channel_instance": [("adversaries", "build_channel_instance")],
    "vectorspace.extend_orthonormal": [("vectorspace", "extend_orthonormal")],
    "vectorspace.sample": [
        ("vectorspace", name)
        for name in ("sample_sphere", "sample_ball", "sample_sphere_batch", "sample_ball_batch")
    ],
    "zoo.eval": [
        ("zoo", f"{cls}.{meth}")
        for cls in ("Spiral", "Warga", "NormDistance", "ChannelInstance")
        for meth in ("eval", "__call__")
    ],
    "zoo.eval_batch": [
        ("zoo", f"{cls}.eval_batch") for cls in ("Spiral", "Warga", "ChannelInstance")
    ],
    "solvers.next_query": [
        ("solvers", f"{cls}.next_query")
        for cls in ("_SubgradientPolicy", "_SteepestPolicy", "_SmoothedPolicy", "_GoldsteinPolicy")
    ],
    "solvers.smoothed_estimates": [("solvers", "smoothed_estimates")],
    "stationarity.min_norm_point": [("stationarity", "min_norm_point")],
    "stationarity.certify": [
        ("stationarity", name)
        for name in (
            "certify_eps_stationary",
            "certify_delta_eps",
            "subdiff_norm_lower_bound",
            "near_stationarity_distance_lb",
        )
    ],
}
# The oracles the adversaries hand out are closures, so their factories are
# wrapped to wrap what they return.
ORACLE = "adversaries.oracle"
# A layer whose calls made from inside another layer's span fold into it.
FOLD_INTO = {"zoo.eval_batch": "zoo.eval"}


class Tracer:
    """Span stack, per-layer totals and the spans of the current round."""

    def __init__(self):
        self.enabled = True
        self.stack: list[list] = []  # [name, start, child_time, id]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def reset(self) -> None:
        self.spans = []
        self.totals = defaultdict(lambda: defaultdict(float))

    def wrap(self, name: str, fn):
        items = ITEMS.get(name)
        fold = FOLD_INTO.get(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] in (name, fold)):
                return fn(*args, **kwargs)
            self.next_id += 1
            frame = [name, clock(), 0.0, self.next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                total = self.totals[name]
                total["calls"] += 1
                total["self_s"] += duration - frame[2]
                parent = stack[-1][3] if stack else None
                self.spans.append((frame[3], name, parent, frame[1], end))
            if items is not None:
                for key, value in items(args, kwargs, result).items():
                    total[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_oracle_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap(ORACLE, factory(*args, **kwargs))

        return traced_factory

    def wrap_affine_factory(self, factory):
        def traced_factory(*args, **kwargs):
            amap = factory(*args, **kwargs)
            # the natural branch already holds a wrapped chain oracle
            if amap.quad_oracle is not None and not hasattr(amap.quad_oracle, "__wrapped__"):
                amap.quad_oracle = self.wrap(ORACLE, amap.quad_oracle)
            return amap

        return traced_factory


def _nearstat_namespaces():
    """Every module and class namespace of the loaded nearstat package."""
    for modname, module in list(sys.modules.items()):
        if modname == "nearstat" or modname.startswith("nearstat."):
            yield module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == modname:
                    yield value


def _resolve(module: str, path: str):
    owner = sys.modules[f"nearstat.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    replacements = {}  # id(original) -> (original, wrapper)
    for name, targets in TARGETS.items():
        for module, path in targets:
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(name, raw.__func__))
            else:
                wrapper = tracer.wrap(name, raw)
            replacements[id(raw)] = (raw, wrapper)
    for module, attr, wrap in (
        ("adversaries", "chain_quadratic_oracle", tracer.wrap_oracle_factory),
        ("adversaries", "rotation_oracle", tracer.wrap_oracle_factory),
        ("adversaries", "affine_map_from_parameters", tracer.wrap_affine_factory),
    ):
        raw = getattr(sys.modules[f"nearstat.{module}"], attr)
        replacements[id(raw)] = (raw, wrap(raw))
    undo = []
    for namespace in _nearstat_namespaces():
        for attr, value in list(vars(namespace).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
                undo.append((namespace, attr, value))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for namespace, attr, value in reversed(undo):
        setattr(namespace, attr, value)


def layer_metrics(totals) -> dict[str, float]:
    """The per-layer metrics of one traced round, from the tracer's totals."""

    def get(name, key):
        return float(totals[name][key]) if name in totals else 0.0

    out = {}
    for name in TARGETS:
        for key in ("calls", "self_s"):
            out[f"{name}.{key}"] = get(name, key)
    out[f"{ORACLE}.calls"] = get(ORACLE, "calls")
    out[f"{ORACLE}.self_s"] = get(ORACLE, "self_s")
    for name, key in (
        ("harness.write_report_files", "bytes"),
        ("harness.figure_csv", "rows"),
        ("oracle_game.play", "queries"),
        ("oracle_game.transcript_io", "bytes"),
        ("zoo.eval_batch", "rows"),
        ("stationarity.min_norm_point", "points"),
        ("stationarity.min_norm_point", "iterations"),
        ("stationarity.min_norm_point", "unconverged"),
    ):
        out[f"{name}.{key}"] = get(name, key)
    calls, rows = out["zoo.eval.calls"], out["zoo.eval_batch.rows"]
    out["zoo.eval.us_per_call"] = 1e6 * out["zoo.eval.self_s"] / calls if calls else 0.0
    out["zoo.eval_batch.ns_per_row"] = 1e9 * out["zoo.eval_batch.self_s"] / rows if rows else 0.0
    return out
