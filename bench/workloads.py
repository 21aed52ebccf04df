"""Set-up, timed work and output checks of each workload.

Each workload replays the public calls a CLI subcommand makes (see
annulus_rd.cli), split at the point where set-up ends:

    state = setup(inputs, out_dir)      # mesh, assembly, specs, series, grid
    outputs = run(inputs, state, out_dir)   # the timed work, exports, manifest
    failures = check(inputs, outputs)   # outside the timed section

check returns a list of failure messages; an empty list means the outputs
are correct. The checks compare against stored reference outputs (FEM) or
against independent code paths of the package (sweep oracle, trace/determinant).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from annulus_rd import _util, fem, geometry, partition, spectrum, stability

from inputs import REFERENCE_DIR

GEOMETRY = (0.5, 1.0)

# A direct solver in place of CG moved the final state by at most 1.1e-7
# (relative) and the monitor by 1.2e-6; the tolerances admit such round-off
# changes with a wide margin and still catch a changed solution.
STATE_RTOL = 1e-5
MONITOR_RTOL = 1e-4
MONITOR_STRIDE = 10  # the reference stores every tenth monitor row
MIN_CONTRAST = 0.1  # a Turing pattern has formed
# A curve point passes if T^2 - 4D (discriminant) or T (transcritical),
# evaluated by stability.trace_det, changes sign within ROOT_BRACKET of its
# beta, or if its scaled residual is below CURVE_RESIDUAL (a tangency). The
# residual alone is too strict where the curve is steep: near alpha = beta =
# 0.005 at gamma ~ 800 a root exact to 1e-14 leaves a residual of 1.3e-8.
CURVE_RESIDUAL = 1e-8
ROOT_BRACKET = 1e-10


def _relative_error(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# simulate (both FEM workloads)
# ---------------------------------------------------------------------------

def fem_setup(inputs, out_dir):
    p = inputs["params"]
    params = stability.KineticParams(alpha=p["alpha"], beta=p["beta"],
                                     gamma=p["gamma"], d=p["d"])
    mesh = geometry.triangulate_annulus(geometry.make_annulus(*GEOMETRY), inputs["h"])
    ops = fem.assemble(mesh)
    config = fem.RunConfig(params=params, mesh=mesh, dt=inputs["dt"], t_end=inputs["t_end"],
                           threshold=inputs["threshold"], kinetics=inputs["kinetics"])
    return config, ops


def fem_run(inputs, state, out_dir):
    config, ops = state
    record = fem.simulate(config, ops)
    paths = [out_dir / "monitor.csv", out_dir / "final.txt"]
    fem.export_monitor(record, paths[0])
    fem.export_snapshot(config.mesh, record.final, paths[1])
    _util.append_manifest(out_dir, "simulate", inputs, paths)
    return record


def fem_check(inputs, record) -> list[str]:
    failures = []
    u, v, monitor = record.final.u, record.final.v, record.monitor
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(monitor))):
        failures.append("non-finite final state or monitor")
    steps = int(round(inputs["t_end"] / inputs["dt"]))
    if record.final.step != steps or len(monitor) != steps:
        failures.append(f"step count: final step {record.final.step}, "
                        f"{len(monitor)} monitor rows, expected {steps}")
    with np.load(REFERENCE_DIR / inputs["reference"]) as ref:
        for name, x in (("u", u), ("v", v)):
            err = _relative_error(x, ref[name]) if len(x) == len(ref[name]) else np.inf
            if not err <= STATE_RTOL:
                failures.append(f"final {name} differs from the reference by {err:.3e} (relative)")
        sampled = monitor[::MONITOR_STRIDE]
        if sampled.shape != ref["monitor"].shape:
            failures.append(f"monitor shape {sampled.shape} vs reference {ref['monitor'].shape}")
        else:
            # per column (t, rate_u, rate_v), relative to the column's largest value
            scale = np.max(np.abs(ref["monitor"]), axis=0)
            err = float(np.max(np.max(np.abs(sampled - ref["monitor"]), axis=0) / scale))
            if not err <= MONITOR_RTOL:
                failures.append(f"monitor differs from the reference by {err:.3e} (relative)")
    if inputs["kinetics"] == "implicit":
        contrast = float(u.max() - u.min())
        if not contrast > MIN_CONTRAST:
            failures.append(f"final u contrast {contrast:.4f} is not above {MIN_CONTRAST}")
    return failures


# ---------------------------------------------------------------------------
# classify, curves, eigenmode, spectrum and a multimode scan (plane-analysis)
# ---------------------------------------------------------------------------

def _sweep_spec(window, n, gamma, d, k, l):
    return partition.SweepSpec(
        alpha_min=window[0], alpha_max=window[1], beta_min=window[2], beta_max=window[3],
        n_alpha=n, n_beta=n, gamma=gamma, d=d, mode=spectrum.ModeIndex(k, l),
        geom=geometry.make_annulus(*GEOMETRY))


@dataclass
class PlaneState:
    sweep: partition.SweepSpec
    curve_specs: list
    alphas: np.ndarray
    renders: list  # (series, eta, k, l)
    grid: geometry.PolarSpectralGrid
    geom: geometry.AnnulusGeometry
    table_ls: np.ndarray
    scan: list  # KineticParams per (alpha, beta) point


def plane_setup(inputs, out_dir):
    geom = geometry.make_annulus(*GEOMETRY)
    c = inputs["classify"]
    sweep = _sweep_spec(c["window"], c["n"], c["gamma"], c["d"], c["k"], c["l"])
    # the curves subcommand's window; the sweep size is unused by build_curves
    specs = [_sweep_spec([0.005, 0.995, 0.005, 1.0], 2, gamma, d, k, l)
             for gamma, d, k, l in inputs["curves"]]
    renders = []
    for k, l in inputs["modes"]:
        mode = spectrum.ModeIndex(k, l)
        renders.append((spectrum.build_series(mode, truncation=80),
                        float(np.sqrt(spectrum.eigenvalue(mode, geom))), k, l))
    table = inputs["table"]
    mm = inputs["multimode"]
    grid_points = np.linspace(0.02, 0.98, mm["n"])
    scan = [stability.KineticParams(alpha=a, beta=b, gamma=mm["gamma"], d=mm["d"])
            for a in grid_points for b in grid_points]
    return PlaneState(sweep, specs, np.linspace(0.005, 0.995, inputs["n_samples"]), renders,
                      geometry.build_polar_grid(geom, N=95, M=90), geom,
                      table["l_start"] + np.arange(table["l_count"]), scan)


@dataclass
class PlaneOutputs:
    region: partition.RegionMap
    region_csv: Path
    curves: list  # (SweepSpec, CurveSet)
    selected_modes: list


def plane_run(inputs, state: PlaneState, out_dir):
    region = partition.sweep_classify(state.sweep, threads=os.cpu_count() or 1)
    paths = [out_dir / "region.csv", out_dir / "region.pgm", out_dir / "region_legend.txt"]
    partition.export_region_map(region, paths[0], raster_path=paths[1], legend_path=paths[2])
    _util.append_manifest(out_dir, "classify", inputs, paths)
    curves = []
    for i, spec in enumerate(state.curve_specs):
        curve_set = partition.build_curves(spec, state.alphas)
        path = out_dir / f"curves_{i}.csv"
        partition.export_curves(curve_set, path)
        _util.append_manifest(out_dir, "curves", inputs, [path])
        curves.append((spec, curve_set))
    for series, eta, k, l in state.renders:
        path = out_dir / f"mode_k{k}_l{l:g}.ppm"
        spectrum.render_phase_plot(series, eta, state.grid, path, resolution=inputs["resolution"])
        _util.append_manifest(out_dir, "eigenmode", inputs, [path])
    table = spectrum.spectrum_table(range(1, inputs["table"]["k_max"] + 1), state.table_ls,
                                    state.geom)
    path = out_dir / "spectrum.csv"
    spectrum.export_spectrum_csv(table, path)
    _util.append_manifest(out_dir, "spectrum", inputs, [path])
    mm = inputs["multimode"]
    selected = [stability.classify_multimode(params, mm["l"], mm["k_max"], state.geom.a,
                                             state.geom.rho).selected_k
                for params in state.scan]
    return PlaneOutputs(region, paths[0], curves, selected)


def _on_curve(fn, beta: float) -> bool:
    """fn changes sign within ROOT_BRACKET of beta, or is a tangency by residual."""
    step = ROOT_BRACKET * max(1.0, abs(beta))
    value, scale = fn(beta)
    return fn(beta - step)[0] * fn(beta + step)[0] <= 0.0 or abs(value) / scale < CURVE_RESIDUAL


def plane_check(inputs, out: PlaneOutputs) -> list[str]:
    failures = []
    sweep = out.region.spec
    mismatches = int(np.sum(out.region.labels != partition.first_principles_labels(sweep)))
    if mismatches:
        failures.append(f"{mismatches} labels differ from first_principles_labels")
    reread = partition.import_region_labels(out.region_csv, sweep.n_alpha, sweep.n_beta)
    mismatches = int(np.sum(reread != out.region.labels))
    if mismatches:
        failures.append(f"{mismatches} labels differ after re-reading the region CSV")
    for i, (spec, curve_set) in enumerate(out.curves):
        eta_sq = spec.eta_sq

        def trace_det(alpha, beta):
            params = stability.KineticParams(alpha=alpha, beta=beta, gamma=spec.gamma, d=spec.d)
            return stability.trace_det(params, eta_sq, spec.form)

        def discriminant(beta, alpha):
            T, D = trace_det(alpha, beta)
            return T * T - 4.0 * D, 1.0 + T * T

        def trace(beta, alpha):
            T, _ = trace_det(alpha, beta)
            return T, 1.0 + abs(T)

        if not len(curve_set.discriminant):
            failures.append(f"curve set {i} has no discriminant points")
        for which, points, fn in (("discriminant", curve_set.discriminant, discriminant),
                                  ("transcritical", curve_set.transcritical, trace)):
            for alpha, beta in points:
                if not _on_curve(lambda b: fn(b, alpha), beta):
                    failures.append(f"curve set {i}: ({alpha!r}, {beta!r}) is not on the "
                                    f"{which} curve by trace_det")
                    break
    return failures


# name -> (setup, run, check)
WORKLOADS = {
    "pattern-implicit": (fem_setup, fem_run, fem_check),
    "hopf-split": (fem_setup, fem_run, fem_check),
    "plane-analysis": (plane_setup, plane_run, plane_check),
}
