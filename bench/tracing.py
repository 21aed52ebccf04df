"""Spans and counters at the layer boundaries of annulus_rd, installed from outside.

The tracer replaces module attributes with timing wrappers: the public calls
the workloads make into each module, the solver names fem imports (cg, splu
and its factor's solve, reaction_terms), fem's own monitor and assembly, and
the Delaunay class geometry calls. Every call through a wrapper records a
span (name, start, end, parent) in memory; spans are written out only when
the run ends. Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); the span name is "<layer>.<call>"
_TRACED_CALLS = (
    ("geometry", "triangulate_annulus", "geometry.triangulate_annulus"),
    ("geometry", "Delaunay", "geometry.Delaunay"),
    ("fem", "assemble", "fem.assemble"),
    ("fem", "simulate", "fem.simulate"),
    ("fem", "reaction_terms", "fem.reaction_terms"),
    ("fem", "l2_time_derivative", "fem.l2_time_derivative"),
    ("fem", "export_monitor", "fem.export_monitor"),
    ("fem", "export_snapshot", "fem.export_snapshot"),
    ("partition", "sweep_classify", "partition.sweep_classify"),
    ("partition", "export_region_map", "partition.export_region_map"),
    ("partition", "build_curves", "partition.build_curves"),
    ("partition", "export_curves", "partition.export_curves"),
    ("spectrum", "build_series", "spectrum.build_series"),
    ("spectrum", "render_phase_plot", "spectrum.render_phase_plot"),
    ("spectrum", "spectrum_table", "spectrum.spectrum_table"),
    ("spectrum", "export_spectrum_csv", "spectrum.export_spectrum_csv"),
    ("stability", "classify_multimode", "stability.classify_multimode"),
    ("_util", "append_manifest", "util.append_manifest"),
)

# span name -> counter that sums the bytes of the files its path arguments name
_EXPORT_BYTES = {
    "fem.export_monitor": "fem.export_bytes",
    "fem.export_snapshot": "fem.export_bytes",
    "partition.export_region_map": "partition.export_bytes",
    "partition.export_curves": "partition.export_bytes",
    "spectrum.render_phase_plot": "spectrum.export_bytes",
    "spectrum.export_spectrum_csv": "spectrum.export_bytes",
}


def _file_bytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, Path)) and Path(value).is_file():
            total += Path(value).stat().st_size
    return total


class Tracer:
    """In-memory span recorder for one worker run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, *after):
        """Return fn recording a span per call; each after(result, args, kwargs) adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for hook in after:
                hook(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the layer boundaries of an imported annulus_rd package."""
        counts = self.counts

        def add(key, measure):
            def after(result, args, kwargs):
                counts[key] += measure(result, args, kwargs)
            return after

        hooks = {name: [add(key, lambda r, args, kwargs: _file_bytes(args, kwargs))]
                 for name, key in _EXPORT_BYTES.items()}
        for name, key, measure in (
                ("geometry.triangulate_annulus", "geometry.vertices",
                 lambda mesh, *_: len(mesh.vertices)),
                ("partition.sweep_classify", "partition.cells",
                 lambda region, *_: region.labels.size),
                ("partition.build_curves", "partition.curve_points",
                 lambda curves, *_: len(curves.discriminant) + len(curves.transcritical)),
                ("spectrum.render_phase_plot", "spectrum.pixels",
                 lambda img, *_: img.shape[0] * img.shape[1])):
            hooks.setdefault(name, []).append(add(key, measure))

        for module_name, attr, name in _TRACED_CALLS:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            self._patch(module, attr, self.wrap(name, getattr(module, attr), *hooks.get(name, ())))

        fem = package.fem
        original_cg = fem.cg

        def cg_counting_iterations(A, b, *args, callback=None, **kwargs):
            def count(xk):
                counts["fem.cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return original_cg(A, b, *args, callback=count, **kwargs)

        self._patch(fem, "cg", self.wrap("fem.cg", cg_counting_iterations))

        tracer = self
        original_splu = fem.splu

        class TracedFactor:
            """An splu factor whose solve records a span."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.wrap("fem.lu_solve", lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        self._patch(fem, "splu", self.wrap(
            "fem.splu", lambda *args, **kwargs: TracedFactor(original_splu(*args, **kwargs))))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: run, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")

    # -- aggregation -------------------------------------------------------

    def _self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their child spans cover."""
        own = {i: end - start for i, (n, start, end, _) in enumerate(self.spans) if n == name}
        children = sum(end - start for _, start, end, parent in self.spans if parent in own)
        return sum(own.values()) - children

    def _step_ms(self) -> np.ndarray:
        """Intervals between consecutive monitor calls of one simulation, in ms."""
        starts: dict[int, list[float]] = {}
        for n, start, _, parent in self.spans:
            if n == "fem.l2_time_derivative":
                starts.setdefault(parent, []).append(start)
        gaps = [np.diff(s) for s in starts.values() if len(s) > 1]
        return 1e3 * np.concatenate(gaps) if gaps else np.zeros(0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by catalog name (all but trace.overhead_s)."""
        c = self.counts
        busy, calls = Counter(), Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
        steps = calls["fem.l2_time_derivative"]
        cg_calls = calls["fem.cg"]
        step_ms = self._step_ms()
        per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
        return {
            "geometry.triangulate_s": busy["geometry.triangulate_annulus"],
            "geometry.delaunay_calls": calls["geometry.Delaunay"],
            "geometry.vertices": c["geometry.vertices"],
            "fem.assemble_s": busy["fem.assemble"],
            "fem.cg_s": busy["fem.cg"],
            "fem.cg_calls": cg_calls,
            "fem.cg_iters": c["fem.cg_iters"],
            "fem.cg_iters_per_solve": c["fem.cg_iters"] / cg_calls if cg_calls else 0.0,
            "fem.splu_s": busy["fem.splu"],
            "fem.splu_calls": calls["fem.splu"],
            "fem.lu_solve_s": busy["fem.lu_solve"],
            "fem.lu_solve_calls": calls["fem.lu_solve"],
            "fem.newton_iters_per_step": per_step(calls["fem.lu_solve"]),
            "fem.refactor_per_step": per_step(calls["fem.splu"]),
            "fem.kinetics_s": busy["fem.reaction_terms"],
            "fem.kinetics_calls": calls["fem.reaction_terms"],
            "fem.kinetics_evals_per_step": per_step(calls["fem.reaction_terms"]),
            "fem.self_s": self._self_time("fem.simulate"),
            "fem.monitor_s": busy["fem.l2_time_derivative"],
            "fem.steps": steps,
            "fem.step_p50_ms": float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
            "fem.step_p99_ms": float(np.percentile(step_ms, 99)) if len(step_ms) else 0.0,
            "fem.export_s": busy["fem.export_monitor"] + busy["fem.export_snapshot"],
            "fem.export_bytes": c["fem.export_bytes"],
            "partition.sweep_s": busy["partition.sweep_classify"],
            "partition.cells": c["partition.cells"],
            "partition.export_s": (busy["partition.export_region_map"]
                                   + busy["partition.export_curves"]),
            "partition.export_bytes": c["partition.export_bytes"],
            "partition.curves_s": busy["partition.build_curves"],
            "partition.curve_points": c["partition.curve_points"],
            "spectrum.series_s": busy["spectrum.build_series"],
            "spectrum.render_s": busy["spectrum.render_phase_plot"],
            "spectrum.pixels": c["spectrum.pixels"],
            "spectrum.table_s": busy["spectrum.spectrum_table"],
            "spectrum.export_bytes": c["spectrum.export_bytes"],
            "stability.multimode_s": busy["stability.classify_multimode"],
            "stability.multimode_calls": calls["stability.classify_multimode"],
            "util.manifest_s": busy["util.append_manifest"],
        }
