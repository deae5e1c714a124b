"""Span tracing of hardylab from outside the package, and the per-layer metrics.

``Tracer.install`` wraps every public function, and every public method of
every public class, defined in the package's layer modules, then rebinds each
name in the package that still points at an original, so calls made through
``from .signs import sign_matrix_chunks`` style imports are traced as well.
Each call becomes a span ``[name, start, end, parent, note]`` kept in memory;
``dump`` writes them out when the traced run ends.  A generator function gets
one span per ``next``, so only the time spent inside it is charged to it.

A span's self time is its duration minus the durations of its child spans;
the layer of a span is the module its name starts with.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "kernels", "sequences", "signs", "extension", "bergman", "cli")

# Every per-layer metric with its unit, in report order.  The run adds
# ``cli.cpu_s``, ``cli.report_bytes``, ``trace.overhead_frac`` and
# ``extension.edge_probe_exit``; ``layer_metrics`` computes the rest.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "kernels.table_s": "s",
    "kernels.table_calls": "count",
    "kernels.table_repeat_frac": "frac",
    "kernels.max_resolution_used": "count",
    "kernels.flagged_frac": "frac",
    "kernels.sh_scan_s": "s",
    "sequences.carleson_s": "s",
    "sequences.power_iterations": "count",
    "sequences.kernel_matrix_s": "s",
    "sequences.dual_solve_s": "s",
    "sequences.dual_sample_s": "s",
    "extension.verify_s": "s",
    "extension.build_s": "s",
    "extension.sign_evals_per_s": "1/s",
    "signs.chunks_s": "s",
    "extension.edge_probe_exit": "code",
    "geometry.quadrature_s": "s",
    "geometry.nodes": "count",
    "cli.serialize_s": "s",
    "cli.report_bytes": "bytes",
    "cli.cpu_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}

_NORM_ENGINE = ("kernels.NormCache.table", "kernels.NormCache.norm")
_CARLESON = ("sequences.carleson_constant", "sequences.weak_carleson_constant")
_DUAL_SOLVE = ("sequences.dual_system_gram", "sequences.dual_system_collocation",
               "sequences.dual_system_blaschke")
_DUAL_SAMPLE = ("sequences.dual_bound", "sequences.DualSystem.delta_residual")
_SH_SCAN = ("kernels.sh_q_scan", "kernels.sh_ps_scan")
_CHUNKS = "signs.sign_matrix_chunks"


def _point_key(a) -> list:
    return [[z.real, z.imag] for z in np.atleast_1d(np.asarray(a, dtype=complex)).ravel()]


# Notes attached to a span after its call: (args, kwargs, result) -> JSON value.
# The norm engine records the (point, exponent set) it was asked for, the
# quadrature builder the node count M of the rule it returned.
_NOTES = {
    "kernels.NormCache.table": lambda args, kw, res: [_point_key(args[1]), sorted(map(float, args[2]))],
    "kernels.NormCache.norm": lambda args, kw, res: [_point_key(args[1]), [float(args[2])]],
    "geometry.build_quadrature": lambda args, kw, res: len(res),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result
        return traced

    def install(self, package: str = "hardylab") -> None:
        """Wrap the public callables of every layer of ``package``."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrapped: dict = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod in [importlib.import_module(package), *modules]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self.wrap(f"{prefix}.{name}", attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(f"{prefix}.{name}", attr.__func__)))

    def dump(self, path: Path) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        Path(path).write_text(json.dumps(self.spans))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans and the report of one traced run


def _self_times(spans: list) -> list:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans: list, names) -> list:
    """Spans named in ``names`` with no ancestor also named there."""
    names = set(names)
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _walk(obj):
    """Every dict nested anywhere in a report."""
    if isinstance(obj, dict):
        yield obj
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v)


def layer_metrics(spans: list, report: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced run (times in seconds).

    ``wall_s`` is the traced wall time of ``cli.run`` plus ``write_report``.
    Names ending in ``_s`` are self times where the layer's own work is meant
    (norm engine, Carleson, verification) and inclusive times of the outermost
    call where a stage is meant (scans, kernel matrix, duals, build,
    quadrature, serialization).
    """
    own = _self_times(spans)

    def self_sum(names) -> float:
        names = set(names)
        return sum(t for (name, *_), t in zip(spans, own) if name in names)

    def inclusive(names) -> float:
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, *_), t in zip(spans, own):
        m[name.split(".", 1)[0] + ".self_s"] += t

    calls = _outermost(spans, _NORM_ENGINE)
    seen, repeats = set(), 0
    for i in calls:
        key = json.dumps(spans[i][4])
        repeats += key in seen
        seen.add(key)
    engines = [d for d in _walk(report) if "max_resolution_used" in d]
    scans = [d for d in _walk(report) if "hypothesis" in d and "flagged" in d]
    grid_points = sum(len(s["flagged"]) + len(s["ratios"]) for s in scans)
    m["kernels.table_s"] = self_sum(_NORM_ENGINE)
    m["kernels.table_calls"] = len(calls)
    m["kernels.table_repeat_frac"] = repeats / len(calls) if calls else 0.0
    m["kernels.max_resolution_used"] = max((d["max_resolution_used"] for d in engines), default=0)
    m["kernels.flagged_frac"] = (sum(len(s["flagged"]) for s in scans) / grid_points
                                 if grid_points else 0.0)
    m["kernels.sh_scan_s"] = inclusive(_SH_SCAN)

    m["sequences.carleson_s"] = self_sum(_CARLESON)
    m["sequences.power_iterations"] = sum(
        d["details"]["iterations"] for d in _walk(report)
        if d.get("method") == "power-iteration")
    m["sequences.kernel_matrix_s"] = inclusive(["sequences.normalized_kernel_matrix"])
    m["sequences.dual_solve_s"] = inclusive(_DUAL_SOLVE)
    m["sequences.dual_sample_s"] = inclusive(_DUAL_SAMPLE)

    nodes = max((s[4] for s in spans if s[0] == "geometry.build_quadrature"), default=0)
    n_points = len(report["config"]["points"])
    sign_evals = sum(d["targets_tested"] for d in _walk(report)
                     if "targets_tested" in d) * (1 << n_points) * nodes
    m["extension.verify_s"] = self_sum(["extension.verify_norm_bound"])
    m["extension.build_s"] = inclusive(["extension.build_extension"])
    m["extension.sign_evals_per_s"] = (sign_evals / m["extension.verify_s"]
                                       if m["extension.verify_s"] > 0 else 0.0)
    m["signs.chunks_s"] = self_sum([_CHUNKS])

    m["geometry.quadrature_s"] = inclusive(["geometry.build_quadrature"])
    m["geometry.nodes"] = nodes

    m["cli.serialize_s"] = inclusive(["cli.write_report"])
    m["trace.coverage"] = sum(own) / wall_s
    m["trace.spans"] = len(spans)
    return m
