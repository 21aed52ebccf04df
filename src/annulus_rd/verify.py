"""Acceptance checks: twelve numbered criteria, one callable per criterion.

Each criterion_N() returns a CriterionResult with a pass/fail flag, the
measured runtime, and a one-line detail string. run_all() executes them in
order and format_table() renders the summary the `verify` subcommand prints.

The two long-running criteria (9 and 10) share their simulation records
through a module-level cache, so invoking them in either order never repeats
a multi-minute run within one process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem, geometry, partition, spectrum, stability
from ._util import rng, sha256_file

# Reference spectrum eta_{k,l}, rows k = 1..12, columns l = 0.3..11.3 step 1,
# inner radius 1/2, outer radius 1. Published to 4 decimals; the reproduction
# tolerance is 1e-3 absolute.
REFERENCE_ETA = np.array([
    [7.1027, 7.5122, 7.8501, 8.2427, 8.7082, 9.2225, 9.7582, 10.2961,
     10.8254, 11.3407, 11.8399, 12.3228],
    [12.6266, 12.4983, 12.4927, 12.7075, 13.1098, 13.6310, 14.2134, 14.8198,
     15.4290, 16.0304, 16.6187, 17.1920],
    [18.1149, 17.4447, 17.0769, 17.0888, 17.3997, 17.8974, 18.4949, 19.1376,
     19.7947, 20.4503, 21.0965, 21.7296],
    [23.5924, 22.3758, 21.6362, 21.4330, 21.6385, 22.0976, 22.6942, 23.3568,
     24.0452, 24.7384, 25.4257, 26.1021],
    [29.0652, 27.2996, 26.1827, 25.7575, 25.8495, 26.2611, 26.8475, 27.5201,
     28.2297, 28.9502, 29.6684, 30.3779],
    [34.5354, 32.2191, 30.7217, 30.0701, 30.0436, 30.4021, 30.9720, 31.6483,
     32.3724, 33.1135, 33.8557, 34.5913],
    [40.0041, 37.1361, 35.2559, 34.3750, 34.2266, 34.5281, 35.0775, 35.7529,
     36.4869, 37.2437, 38.0050, 38.7618],
    [45.4719, 42.0513, 39.7869, 38.6747, 38.4020, 38.6438, 39.1696, 39.8409,
     40.5813, 41.3503, 42.1272, 42.9014],
    [50.9391, 46.9654, 44.3157, 42.9706, 42.5719, 42.7519, 43.2519, 43.9168,
     44.6610, 45.4396, 46.2291, 47.0180],
    [56.4057, 51.8786, 48.8427, 47.2638, 46.7376, 46.8544, 47.3268, 47.9834,
     48.7296, 49.5155, 50.3156, 51.1170],
    [61.8721, 56.7912, 53.3685, 51.5549, 50.9003, 50.9526, 51.3961, 52.0428,
     52.7894, 53.5811, 54.3901, 55.2021],
    [67.3382, 61.7032, 57.8933, 55.8444, 55.0605, 55.0474, 55.4610, 56.0967,
     56.8423, 57.6385, 58.4549, 59.2761],
])
REFERENCE_K = np.arange(1, 13)
REFERENCE_L = 0.3 + np.arange(12)

# Headline simulation configurations (desk scale). The kinetics treatment is
# chosen per run to match each run's own dt->0 behavior: backward Euler for
# the stationary-pattern run, Strang splitting for the oscillatory run (see
# fem module docstring for the damping rationale).
TURING_PARAMS = stability.KineticParams(alpha=0.09, beta=0.45, gamma=250.0, d=10.0)
HOPF_PARAMS = stability.KineticParams(alpha=0.05, beta=0.55, gamma=730.0, d=5.0)

# Monitor peak detection, shared by criterion 10 and its comparison against
# criterion 9: ignore the start-up transient (t < 2), require separation 0.5
# and height above the convergence threshold.
PEAK_START = 2.0
PEAK_SEPARATION = 0.5
PEAK_HEIGHT = 5e-4

_cache: dict = {}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {mark}  {self.name}  ({self.runtime_s:.1f} s)  {self.detail}"


def _result(number, name, passed, t0, detail) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), time.perf_counter() - t0, detail)


def _half_unit_annulus() -> geometry.AnnulusGeometry:
    return geometry.make_annulus(0.5, 1.0)


def _desk_mesh() -> geometry.TriMesh:
    if "desk_mesh" not in _cache:
        _cache["desk_mesh"] = geometry.triangulate_annulus(
            _half_unit_annulus(), geometry.DESK_SCALE_H)
    return _cache["desk_mesh"]


# ---------------------------------------------------------------------------
# criteria 1-4: spectrum
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Reference spectrum table reproduced within 1e-3 absolute, under 1 s."""
    t0 = time.perf_counter()
    table = spectrum.spectrum_table(REFERENCE_K, REFERENCE_L, _half_unit_annulus())
    dev = float(np.abs(table.eta - REFERENCE_ETA).max())
    runtime = time.perf_counter() - t0
    passed = dev < 1e-3 and runtime < 1.0
    return _result(1, "spectrum table vs published values", passed, t0,
                   f"max |d eta| {dev:.2e} (tol 1e-3), {len(REFERENCE_K) * len(REFERENCE_L)} entries")


def _random_modes(n: int, seed: int):
    gen = rng(seed)
    ks = gen.integers(0, 13, size=n)
    ls = gen.uniform(0.05, 12.0, size=n)
    # keep clear of the half-integer poles of the closed form
    ls += 0.005 * (np.abs(ls - np.round(ls * 2.0) / 2.0) < 1e-3)
    avals = gen.uniform(0.1, 2.0, size=n)
    rhos = gen.uniform(0.05, 2.0, size=n)
    return ks, ls, avals, rhos


def criterion_2() -> CriterionResult:
    """Two-part eigenvalue split sums exactly over 1e4 random modes, under 1 s."""
    t0 = time.perf_counter()
    n = 10_000
    ks, ls, avals, rhos = _random_modes(n, seed=20260814)
    total = spectrum._eigenvalues(ks, ls, avals, avals + rhos)
    _, _, part1, part2 = spectrum._closed_form(ks, ls, avals, avals + rhos)
    worst = float(np.max(np.abs(total - (part1 + part2)) / np.abs(total)))
    runtime = time.perf_counter() - t0
    passed = worst < 1e-12 and runtime < 1.0
    return _result(2, "two-part eigenvalue superposition", passed, t0,
                   f"worst rel {worst:.2e} over {n} modes (tol 1e-12), {runtime:.2f} s")


def criterion_3() -> CriterionResult:
    """Weighting x order factor equals the closed form as printed; f monotone; f(0) exact.

    The printed formula (module docstring of spectrum) is evaluated in plain
    powers, which stay finite over the sampled modes, against the log-space
    kernel behind eigenvalue().
    """
    t0 = time.perf_counter()
    n = 10_000
    k, l, a, rho = _random_modes(n, seed=20260815)
    b = a + rho
    kernel = spectrum._eigenvalues(k, l, a, b)
    printed = (4.0 * (a**l * b + a * b**l) * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k)
               / (a * b * (a**(l + 1) + b**(l + 1)) * (l + 4 * k + 2)))
    worst = float(np.max(np.abs(kernel - printed) / np.abs(printed)))
    composition_ok = worst < 1e-12

    ladder = np.linspace(0.01, 3.0, 1000)
    fvals, _, _, _ = spectrum._closed_form(0, 1.3, 0.5, 0.5 + ladder)
    monotone_ok = bool(np.all(np.diff(fvals) < 0.0))

    aa, rr = np.array([0.5, 0.25, 1.5]), np.array([0.5, 1.0, 0.3])
    f0, _, _, _ = spectrum._closed_form(0, 0.0, aa, aa + rr)
    exact_ok = bool(np.all(f0 == 1.0 / (aa * (rr + aa))))

    passed = composition_ok and monotone_ok and exact_ok
    return _result(3, "weighting composition and monotonicity", passed, t0,
                   f"composition rel {worst:.2e}, monotone {monotone_ok}, f(l=0) exact {exact_ok}")


def criterion_4() -> CriterionResult:
    """Collocation residual < 1e-6 for 8 modes at N=95, under 5 s."""
    t0 = time.perf_counter()
    geom = _half_unit_annulus()
    grid = geometry.build_polar_grid(geom, N=95, M=90)
    worst = 0.0
    worst_mode = None
    for k in (1, 2, 3, 4):
        for l in (0.3, 1.3):
            mode = spectrum.ModeIndex(k, l)
            series = spectrum.build_series(mode)
            eta = np.sqrt(spectrum.eigenvalue(mode, geom))
            res = spectrum.collocation_residual(series, eta, grid)
            if res > worst:
                worst, worst_mode = res, mode
    runtime = time.perf_counter() - t0
    passed = worst < 1e-6 and runtime < 5.0
    return _result(4, "spectral collocation residual", passed, t0,
                   f"worst {worst:.2e} at k={worst_mode.k} l={worst_mode.l} (tol 1e-6)")


# ---------------------------------------------------------------------------
# criteria 5-7: parameter plane
# ---------------------------------------------------------------------------

def _sweep_spec(gamma: float, d: float, n: int = 200) -> partition.SweepSpec:
    return partition.SweepSpec(
        alpha_min=0.005, alpha_max=1.0, beta_min=0.005, beta_max=1.0,
        n_alpha=n, n_beta=n, gamma=gamma, d=d,
        mode=spectrum.ModeIndex(0, 0.27), geom=_half_unit_annulus())


def criterion_5() -> CriterionResult:
    """Region-census clauses: two attainable ones plus the nesting clause.

    The third clause (set nesting of the stable-node region as d grows)
    is genuinely false for this model: the determinant decreases with d
    wherever the activator diagonal entry is positive, and the discriminant
    is non-monotone in d, so cells keep leaving the node set even though
    its cardinality grows. The clause is evaluated faithfully and reported.
    """
    t0 = time.perf_counter()
    quiet = partition.sweep_classify(_sweep_spec(gamma=1.0, d=1.4))
    counts_quiet = quiet.counts()
    clause1 = (counts_quiet["HopfInstability"] == 0
               and counts_quiet["TranscriticalCurve"] == 0)

    active_spec = _sweep_spec(gamma=21.0, d=8.0)
    active = partition.sweep_classify(active_spec)
    counts_active = active.counts()
    tc_curve = partition.transcritical_curve(active_spec, np.linspace(0.005, 0.995, 100))
    clause2 = counts_active["HopfInstability"] > 0 and len(tc_curve) > 0

    node_code = partition.LABEL_CODES[stability.StabilityLabel.STABLE_NODE]
    masks = []
    for d in (8.0, 11.0, 14.0, 17.0, 20.0):
        region = partition.sweep_classify(_sweep_spec(gamma=21.0, d=d))
        masks.append(region.labels == node_code)
    lost = [int(np.sum(prev & ~cur)) for prev, cur in zip(masks, masks[1:])]
    sizes = [int(m.sum()) for m in masks]
    clause3 = all(n == 0 for n in lost)

    runtime = time.perf_counter() - t0
    passed = clause1 and clause2 and clause3 and runtime < 30.0
    return _result(
        5, "region census clauses", passed, t0,
        f"quiet Hopf/transcritical {counts_quiet['HopfInstability']}/"
        f"{counts_quiet['TranscriticalCurve']}, active Hopf {counts_active['HopfInstability']}"
        f" curve pts {len(tc_curve)}, node sizes {sizes} cells lost per d step {lost}")


def criterion_6() -> CriterionResult:
    """Curve points from dual root-finding satisfy their defining equations."""
    t0 = time.perf_counter()
    worst_disc = 0.0
    worst_tc = 0.0
    total = 0
    for gamma, d in ((21.0, 8.0), (250.0, 10.0)):
        spec = _sweep_spec(gamma=gamma, d=d)
        alphas = np.linspace(0.005, 0.995, 100)
        eta_sq = spec.eta_sq
        curves = partition.build_curves(spec, alphas)
        for alpha, beta in curves.discriminant:
            T, D = stability.trace_det(
                stability.KineticParams(alpha, beta, gamma, d), eta_sq)
            worst_disc = max(worst_disc, abs(T * T - 4.0 * D) / (1.0 + T * T))
        for alpha, beta in curves.transcritical:
            T, _ = stability.trace_det(
                stability.KineticParams(alpha, beta, gamma, d), eta_sq)
            worst_tc = max(worst_tc, abs(T) / (1.0 + abs(T)))
        total += len(curves.discriminant) + len(curves.transcritical)
    passed = worst_disc < 1e-8 and worst_tc < 1e-8
    return _result(6, "partition curve residuals", passed, t0,
                   f"{total} points, residuals disc {worst_disc:.2e} trace {worst_tc:.2e}"
                   " (tol 1e-8, dual-method agreement enforced inside)")


def criterion_7() -> CriterionResult:
    """Sweep labels equal a first-principles growth-rate classification."""
    t0 = time.perf_counter()
    spec = _sweep_spec(gamma=21.0, d=8.0, n=100)
    swept = partition.sweep_classify(spec)
    independent = partition.first_principles_labels(spec)
    mismatches = int(np.sum(swept.labels != independent))
    passed = mismatches == 0
    return _result(7, "sweep vs first-principles labels", passed, t0,
                   f"{mismatches} mismatches on 100x100")


# ---------------------------------------------------------------------------
# criteria 8-10: finite elements
# ---------------------------------------------------------------------------

def criterion_8() -> CriterionResult:
    """Uniform steady state preserved to 1e-12 per step, 5 random parameter sets."""
    t0 = time.perf_counter()
    mesh = _desk_mesh()
    ops = fem.assemble(mesh)
    gen = rng(20260816)
    worst = 0.0
    for _ in range(5):
        params = stability.KineticParams(
            alpha=float(gen.uniform(0.05, 0.95)), beta=float(gen.uniform(0.05, 0.95)),
            gamma=float(gen.uniform(10.0, 500.0)), d=float(gen.uniform(1.0, 50.0)))
        ss = stability.steady_state(params)
        config = fem.RunConfig(params=params, mesh=mesh, dt=1e-3, t_end=1.0)
        stepper = fem._Stepper(ops, config)
        n = len(mesh.vertices)
        state = fem.FemState(np.full(n, ss.u_s), np.full(n, ss.v_s), 0.0, 0)
        for _ in range(1000):
            new = stepper.step(state)
            drift = max(float(np.abs(new.u - ss.u_s).max()),
                        float(np.abs(new.v - ss.v_s).max()))
            worst = max(worst, drift)
            if drift > 1e-12:
                break
        if worst > 1e-12:
            break
    runtime = time.perf_counter() - t0
    passed = worst <= 1e-12 and runtime < 10.0
    return _result(8, "uniform state is a fixed point", passed, t0,
                   f"worst per-step drift {worst:.2e} (tol 1e-12), {runtime:.1f} s")


def turing_run() -> tuple[fem.RunRecord, float]:
    """The stationary-pattern headline run and its wall time (cached)."""
    if "turing_run" not in _cache:
        config = fem.RunConfig(params=TURING_PARAMS, mesh=_desk_mesh(), dt=1e-3,
                               t_end=150.0, threshold=5e-4, kinetics="implicit")
        start = time.perf_counter()
        record = fem.simulate(config)
        _cache["turing_run"] = (record, time.perf_counter() - start)
    return _cache["turing_run"]


def hopf_run() -> tuple[fem.RunRecord, float]:
    """The oscillatory headline run and its wall time (cached)."""
    if "hopf_run" not in _cache:
        config = fem.RunConfig(params=HOPF_PARAMS, mesh=_desk_mesh(), dt=1e-3,
                               t_end=30.0, threshold=0.0, kinetics="split")
        start = time.perf_counter()
        record = fem.simulate(config)
        _cache["hopf_run"] = (record, time.perf_counter() - start)
    return _cache["hopf_run"]


def criterion_9() -> CriterionResult:
    """Pattern run: threshold termination with non-uniform u, under 10 min."""
    t0 = time.perf_counter()
    record, wall = turing_run()
    contrast = float(record.final.u.max() - record.final.u.min())
    passed = (record.termination == "threshold" and contrast > 0.1 and wall < 600.0)
    return _result(9, "stationary pattern run", passed, t0,
                   f"terminated by {record.termination} at t={record.final.t:.3f}, "
                   f"u contrast {contrast:.4f} (needs > 0.1), run wall {wall:.0f} s, "
                   f"{record.factorizations} factorizations, {record.lu_solves} LU solves")


def criterion_10() -> CriterionResult:
    """Oscillatory run: recurrent monitor maxima; pattern run decays monotonically."""
    t0 = time.perf_counter()
    record, wall = hopf_run()
    peaks = fem.monitor_peaks(record, species="u", start_time=PEAK_START,
                              min_separation=PEAK_SEPARATION, min_height=PEAK_HEIGHT)
    early = peaks[peaks <= 15.0]
    recurrent_ok = len(early) >= 2

    pattern, _ = turing_run()
    pattern_peaks = fem.monitor_peaks(pattern, species="u", start_time=PEAK_START,
                                      min_separation=PEAK_SEPARATION,
                                      min_height=PEAK_HEIGHT)
    rate_u = pattern.monitor[:, 1]
    times = pattern.monitor[:, 0]
    if len(pattern_peaks) > 0:
        tail = rate_u[times >= pattern_peaks[-1]]
    else:
        tail = rate_u[times >= PEAK_START]
    worst_rise = float(np.diff(tail).max()) if len(tail) > 1 else 0.0
    monotone_ok = len(pattern_peaks) <= 1 and worst_rise < 1e-6

    passed = recurrent_ok and monotone_ok and wall < 1200.0
    return _result(10, "recurrent oscillation run", passed, t0,
                   f"{len(early)} peaks by t=15 (needs >= 2), {len(peaks)} by t=30; "
                   f"pattern run has {len(pattern_peaks)} peak(s), decay rise "
                   f"{worst_rise:.1e}; run wall {wall:.0f} s")


# ---------------------------------------------------------------------------
# criteria 11-12: mesh fidelity and determinism
# ---------------------------------------------------------------------------

def criterion_11() -> CriterionResult:
    """Fine triangulation hits the published element counts and quality floor."""
    t0 = time.perf_counter()
    geom = _half_unit_annulus()
    mesh = geometry.triangulate_annulus(geom, geometry.PAPER_FIDELITY_H)
    n_tri = len(mesh.triangles)
    n_vert = len(mesh.vertices)
    quality = float(geometry.triangle_quality(mesh.vertices, mesh.triangles).min())
    area = float(geometry.triangle_areas(mesh.vertices, mesh.triangles).sum())
    exact = np.pi * (geom.b ** 2 - geom.a ** 2)
    area_err = abs(area - exact) / exact
    tri_ok = abs(n_tri - 6340) <= 0.05 * 6340
    vert_ok = abs(n_vert - 3333) <= 0.05 * 3333
    passed = tri_ok and vert_ok and quality >= 0.3 and area_err < 0.01
    return _result(11, "fine mesh fidelity", passed, t0,
                   f"{n_tri} triangles / {n_vert} vertices (targets 6340/3333 +-5%), "
                   f"min quality {quality:.3f}, area err {area_err:.2e}")


def _artifact_set(out_dir: Path) -> dict[str, str]:
    """Produce one deterministic artifact of every export family; digest each."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    geom = _half_unit_annulus()

    table = spectrum.spectrum_table(range(1, 5), [0.3, 1.3], geom)
    spectrum.export_spectrum_csv(table, out_dir / "spectrum.csv")

    mode = spectrum.ModeIndex(1, 0.3)
    series = spectrum.build_series(mode)
    eta = np.sqrt(spectrum.eigenvalue(mode, geom))
    grid = geometry.build_polar_grid(geom, N=32, M=36)
    spectrum.render_phase_plot(series, eta, grid, out_dir / "mode.ppm", resolution=120)

    spec = partition.SweepSpec(alpha_min=0.005, alpha_max=1.0, beta_min=0.005,
                               beta_max=1.0, n_alpha=60, n_beta=60, gamma=21.0,
                               d=8.0, mode=spectrum.ModeIndex(0, 0.27), geom=geom)
    region = partition.sweep_classify(spec)
    partition.export_region_map(region, out_dir / "region.csv",
                                raster_path=out_dir / "region.pgm",
                                legend_path=out_dir / "region_legend.txt")
    curves = partition.build_curves(spec, np.linspace(0.01, 0.99, 25))
    partition.export_curves(curves, out_dir / "curves.csv")

    mesh = geometry.triangulate_annulus(geom, 0.15)
    geometry.export_mesh(mesh, out_dir / "mesh.node", out_dir / "mesh.ele")

    config = fem.RunConfig(params=TURING_PARAMS, mesh=mesh, dt=1e-3, t_end=0.05,
                           threshold=0.0, snapshot_times=(0.05,))
    record = fem.simulate(config)
    fem.export_monitor(record, out_dir / "monitor.csv")
    fem.export_snapshot(mesh, record.snapshots[0][1], out_dir / "snapshot.txt")

    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def criterion_12(work_dir=None) -> CriterionResult:
    """The artifact pipeline is bit-reproducible: two runs, identical digests."""
    import tempfile

    t0 = time.perf_counter()
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="verify-determinism-") as tmp:
            return criterion_12(tmp)
    work_dir = Path(work_dir)
    first = _artifact_set(work_dir / "run1")
    second = _artifact_set(work_dir / "run2")
    same_names = set(first) == set(second)
    differing = [name for name in first if same_names and first[name] != second[name]]
    passed = same_names and not differing
    detail = (f"{len(first)} artifacts, digests identical" if passed
              else f"mismatch: {differing or 'different file sets'}")
    return _result(12, "artifact determinism", passed, t0, detail)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11, criterion_12)


def run_all() -> list[CriterionResult]:
    """Run the full battery in order. Criteria 9/10 dominate the runtime."""
    return [fn() for fn in ALL_CRITERIA]


def format_table(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
