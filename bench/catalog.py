"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

This is the single source of BENCHMARK.json at the repository root; print
it with

    python3 bench/catalog.py > BENCHMARK.json

Each per-layer metric also names its layer (a module of annulus_rd) and the
end-to-end metric and workload it is expected to move, so a later change can
cite the chain metric -> layer -> workload by name. That map lives here and
not in BENCHMARK.json, whose keys are fixed.
"""

from __future__ import annotations

import json

RUN_SECONDS = 42

# name, why it is in the benchmark (one line)
WORKLOADS = (
    ("pattern-implicit",
     "simulate --kinetics implicit, desk mesh, Turing set, 2000 steps: sparse LU "
     "refactor/solve dominate; runs no CG and no RK4, so it bypasses split-path changes"),
    ("hopf-split",
     "simulate --kinetics split, reference mesh, Hopf set, 1500 steps: CG and RK4 "
     "kinetics dominate, the mesher dominates set-up; runs no splu"),
    ("plane-analysis",
     "classify 400x400 with CSV/PGM export, curves, eigenmode renders, spectrum table and a "
     "multimode scan: partition, spectrum and stability; no FEM"),
)

# name, unit, better, bound (share of the parent's median), statistic over
# the operations of one run. Times are scaled to a fixed host speed (see
# run.py and calibrate.py).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "median"),
    ("run_s", "s", "lower", 0.25, "median"),
    ("peak_rss_mb", "MB", "lower", 0.1, "median"),
)

IMPLICIT = ("pattern-implicit",)
SPLIT = ("hopf-split",)
PLANE = ("plane-analysis",)
FEM = IMPLICIT + SPLIT

# name, unit, better, layer, end-to-end metrics it should move, on which workloads
PER_LAYER = (
    ("geometry.triangulate_s", "s", "lower", "geometry", ("setup_s",), FEM),
    ("geometry.delaunay_calls", "count", "lower", "geometry", ("setup_s",), FEM),
    ("geometry.vertices", "count", "higher", "geometry", ("setup_s",), FEM),
    ("fem.assemble_s", "s", "lower", "fem", ("setup_s",), FEM),
    ("fem.cg_s", "s", "lower", "fem", ("run_s",), SPLIT),
    ("fem.cg_calls", "count", "lower", "fem", ("run_s",), SPLIT),
    ("fem.cg_iters", "count", "lower", "fem", ("run_s",), SPLIT),
    ("fem.cg_iters_per_solve", "count/solve", "lower", "fem", ("run_s",), SPLIT),
    ("fem.splu_s", "s", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.splu_calls", "count", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.lu_solve_s", "s", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.lu_solve_calls", "count", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.newton_iters_per_step", "count/step", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.refactor_per_step", "count/step", "lower", "fem", ("run_s",), IMPLICIT),
    ("fem.kinetics_s", "s", "lower", "fem", ("run_s",), SPLIT),
    ("fem.kinetics_calls", "count", "lower", "fem", ("run_s",), SPLIT),
    ("fem.kinetics_evals_per_step", "count/step", "lower", "fem", ("run_s",), SPLIT),
    ("fem.self_s", "s", "lower", "fem", ("run_s",), SPLIT),
    ("fem.monitor_s", "s", "lower", "fem", ("run_s",), FEM),
    ("fem.steps", "count", "higher", "fem", ("run_s",), FEM),
    ("fem.step_p50_ms", "ms", "lower", "fem", ("run_s",), FEM),
    ("fem.step_p99_ms", "ms", "lower", "fem", ("run_s",), FEM),
    ("fem.export_s", "s", "lower", "fem", ("run_s",), FEM),
    ("fem.export_bytes", "B", "lower", "fem", ("run_s",), FEM),
    ("partition.sweep_s", "s", "lower", "partition", ("run_s", "peak_rss_mb"), PLANE),
    ("partition.cells", "count", "higher", "partition", ("run_s", "peak_rss_mb"), PLANE),
    ("partition.export_s", "s", "lower", "partition", ("run_s", "peak_rss_mb"), PLANE),
    ("partition.export_bytes", "B", "lower", "partition", ("run_s", "peak_rss_mb"), PLANE),
    ("partition.curves_s", "s", "lower", "partition", ("run_s",), PLANE),
    ("partition.curve_points", "count", "higher", "partition", ("run_s",), PLANE),
    ("spectrum.series_s", "s", "lower", "spectrum", ("setup_s",), PLANE),
    ("spectrum.render_s", "s", "lower", "spectrum", ("run_s",), PLANE),
    ("spectrum.pixels", "count", "higher", "spectrum", ("run_s",), PLANE),
    ("spectrum.table_s", "s", "lower", "spectrum", ("run_s",), PLANE),
    ("spectrum.export_bytes", "B", "lower", "spectrum", ("run_s",), PLANE),
    ("stability.multimode_s", "s", "lower", "stability", ("run_s",), PLANE),
    ("stability.multimode_calls", "count", "lower", "stability", ("run_s",), PLANE),
    ("util.manifest_s", "s", "lower", "_util", ("run_s",), PLANE),
    # median traced run_s minus the median untraced run_s of the same run; moves nothing
    ("trace.overhead_s", "s", "lower", "bench", (), ()),
)


def benchmark_json() -> dict:
    """The BENCHMARK.json document, in its fixed key set."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
