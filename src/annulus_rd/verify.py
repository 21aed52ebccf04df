"""Acceptance checks: twelve numbered criteria, one callable per criterion.

Each criterion is declared once, by @criterion(number, name, budget_s) on
its body: that line is the only place its number, name and wall-time
budget are written. The body returns (passed, detail). The registered
criterion_N() times it, fails it at its budget and returns a
CriterionResult; registration also adds it to ALL_CRITERIA in number
order. run_all() executes them in order and format_table() renders the
summary the `verify` subcommand prints.

The two long-running criteria (9 and 10) share their simulation records
through headline_run's cache, so invoking them in either order never
repeats a multi-minute run within one process. Each checks the wall time
of the run itself, which its own runtime does not hold when the other
criterion made the run. Criterion 12 runs the CLI's own subcommands twice
and compares the files' digests.
"""

from __future__ import annotations

import functools
import tempfile
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
_HEADLINE_RUNS = {
    "turing": dict(params=TURING_PARAMS, t_end=150.0, threshold=5e-4, kinetics="implicit"),
    "hopf": dict(params=HOPF_PARAMS, t_end=30.0, threshold=0.0, kinetics="split"),
}

# Monitor peak detection, shared by criterion 10 and its comparison against
# criterion 9: ignore the start-up transient (t < 2), require separation 0.5
# and height above the convergence threshold.
PEAK_START = 2.0
PEAK_SEPARATION = 0.5
PEAK_HEIGHT = 5e-4


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


# the registered criteria in number order, filled by @criterion
ALL_CRITERIA: list = []


def criterion(number: int, name: str, budget_s: float | None = None):
    """Register the decorated body as criterion `number`, in ALL_CRITERIA.

    The body takes no arguments and returns (passed, detail). The
    registered callable times it, fails it if it ran budget_s seconds or
    longer, and returns its CriterionResult.
    """
    def register(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            runtime = time.perf_counter() - t0
            if budget_s is not None and runtime >= budget_s:
                passed, detail = False, f"{detail}; over its {budget_s:g} s budget"
            return CriterionResult(number, name, bool(passed), runtime, detail)

        run.number, run.name = number, name
        ALL_CRITERIA.append(run)
        ALL_CRITERIA.sort(key=lambda c: c.number)
        return run
    return register


def _half_unit_annulus() -> geometry.AnnulusGeometry:
    return geometry.make_annulus(0.5, 1.0)


@functools.cache
def _desk_mesh() -> geometry.TriMesh:
    return geometry.triangulate_annulus(_half_unit_annulus(), geometry.DESK_SCALE_H)


# ---------------------------------------------------------------------------
# criteria 1-4: spectrum
# ---------------------------------------------------------------------------

@criterion(1, "spectrum table vs published values", budget_s=1.0)
def criterion_1():
    """Reference spectrum table reproduced within 1e-3 absolute."""
    table = spectrum.spectrum_table(REFERENCE_K, REFERENCE_L, _half_unit_annulus())
    dev = float(np.abs(table.eta - REFERENCE_ETA).max())
    return dev < 1e-3, (f"max |d eta| {dev:.2e} (tol 1e-3), "
                        f"{len(REFERENCE_K) * len(REFERENCE_L)} entries")


def _random_modes(n: int, seed: int):
    gen = rng(seed)
    ks = gen.integers(0, 13, size=n)
    ls = gen.uniform(0.05, 12.0, size=n)
    # keep clear of the half-integer poles of the closed form
    ls += 0.005 * (np.abs(ls - np.round(ls * 2.0) / 2.0) < 1e-3)
    avals = gen.uniform(0.1, 2.0, size=n)
    rhos = gen.uniform(0.05, 2.0, size=n)
    return ks, ls, avals, rhos


@criterion(2, "two-part eigenvalue superposition", budget_s=1.0)
def criterion_2():
    """Two-part eigenvalue split sums exactly over 1e4 random modes."""
    n = 10_000
    ks, ls, avals, rhos = _random_modes(n, seed=20260814)
    total = spectrum._eigenvalues(ks, ls, avals, avals + rhos)
    _, _, part1, part2 = spectrum._closed_form(ks, ls, avals, avals + rhos)
    worst = float(np.max(np.abs(total - (part1 + part2)) / np.abs(total)))
    return worst < 1e-12, f"worst rel {worst:.2e} over {n} modes (tol 1e-12)"


@criterion(3, "weighting composition and monotonicity")
def criterion_3():
    """Weighting x order factor equals the closed form as printed; f monotone; f(0) exact.

    The printed formula (module docstring of spectrum) is evaluated in plain
    powers, which stay finite over the sampled modes, against the log-space
    kernel behind eigenvalue().
    """
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

    return (composition_ok and monotone_ok and exact_ok,
            f"composition rel {worst:.2e}, monotone {monotone_ok}, f(l=0) exact {exact_ok}")


@criterion(4, "spectral collocation residual", budget_s=5.0)
def criterion_4():
    """Collocation residual < 1e-6 for 8 modes at N=95."""
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
    return worst < 1e-6, f"worst {worst:.2e} at k={worst_mode.k} l={worst_mode.l} (tol 1e-6)"


# ---------------------------------------------------------------------------
# criteria 5-7: parameter plane
# ---------------------------------------------------------------------------

def _sweep_spec(gamma: float, d: float, n: int = 200) -> partition.SweepSpec:
    return partition.SweepSpec(
        alpha_min=0.005, alpha_max=1.0, beta_min=0.005, beta_max=1.0,
        n_alpha=n, n_beta=n, gamma=gamma, d=d,
        mode=spectrum.ModeIndex(0, 0.27), geom=_half_unit_annulus())


@criterion(5, "region census clauses", budget_s=30.0)
def criterion_5():
    """Region-census clauses: two attainable ones plus the nesting clause.

    The third clause (set nesting of the stable-node region as d grows)
    is genuinely false for this model: the determinant decreases with d
    wherever the activator diagonal entry is positive, and the discriminant
    is non-monotone in d, so cells keep leaving the node set even though
    its cardinality grows. The clause is evaluated faithfully and reported.
    """
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
    return (
        clause1 and clause2 and clause3,
        f"quiet Hopf/transcritical {counts_quiet['HopfInstability']}/"
        f"{counts_quiet['TranscriticalCurve']}, active Hopf {counts_active['HopfInstability']}"
        f" curve pts {len(tc_curve)}, node sizes {sizes} cells lost per d step {lost}")


@criterion(6, "partition curve residuals")
def criterion_6():
    """Curve points from dual root-finding satisfy their defining equations."""
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
    return (worst_disc < 1e-8 and worst_tc < 1e-8,
            f"{total} points, residuals disc {worst_disc:.2e} trace {worst_tc:.2e}"
            " (tol 1e-8, dual-method agreement enforced inside)")


@criterion(7, "sweep vs first-principles labels")
def criterion_7():
    """Sweep labels equal a first-principles growth-rate classification."""
    spec = _sweep_spec(gamma=21.0, d=8.0, n=100)
    swept = partition.sweep_classify(spec)
    independent = partition.first_principles_labels(spec)
    mismatches = int(np.sum(swept.labels != independent))
    return mismatches == 0, f"{mismatches} mismatches on 100x100"


# ---------------------------------------------------------------------------
# criteria 8-10: finite elements
# ---------------------------------------------------------------------------

@criterion(8, "uniform state is a fixed point", budget_s=10.0)
def criterion_8():
    """Uniform steady state preserved to 1e-12 per step, 5 random parameter sets."""
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
    return worst <= 1e-12, f"worst per-step drift {worst:.2e} (tol 1e-12)"


@functools.cache
def headline_run(name: str) -> tuple[fem.RunRecord, float]:
    """Headline run "turing" or "hopf" and its wall time (cached)."""
    config = fem.RunConfig(mesh=_desk_mesh(), dt=1e-3, **_HEADLINE_RUNS[name])
    start = time.perf_counter()
    record = fem.simulate(config)
    return record, time.perf_counter() - start


@criterion(9, "stationary pattern run")
def criterion_9():
    """Pattern run: threshold termination with non-uniform u, run wall under 10 min."""
    record, wall = headline_run("turing")
    contrast = float(record.final.u.max() - record.final.u.min())
    return (record.termination == "threshold" and contrast > 0.1 and wall < 600.0,
            f"terminated by {record.termination} at t={record.final.t:.3f}, "
            f"u contrast {contrast:.4f} (needs > 0.1), run wall {wall:.0f} s, "
            f"{record.factorizations} factorizations, {record.lu_solves} LU solves")


@criterion(10, "recurrent oscillation run")
def criterion_10():
    """Oscillatory run: recurrent maxima, run wall under 20 min; pattern run decays."""
    record, wall = headline_run("hopf")
    peaks = fem.monitor_peaks(record, species="u", start_time=PEAK_START,
                              min_separation=PEAK_SEPARATION, min_height=PEAK_HEIGHT)
    early = peaks[peaks <= 15.0]
    recurrent_ok = len(early) >= 2

    pattern, _ = headline_run("turing")
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

    return (recurrent_ok and monotone_ok and wall < 1200.0,
            f"{len(early)} peaks by t=15 (needs >= 2), {len(peaks)} by t=30; "
            f"pattern run has {len(pattern_peaks)} peak(s), decay rise "
            f"{worst_rise:.1e}; run wall {wall:.0f} s, "
            f"{record.kinetics_substeps} RK4 substeps")


# ---------------------------------------------------------------------------
# criteria 11-12: mesh fidelity and determinism
# ---------------------------------------------------------------------------

@criterion(11, "fine mesh fidelity")
def criterion_11():
    """Fine triangulation hits the published element counts and quality floor."""
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
    return (tri_ok and vert_ok and quality >= 0.3 and area_err < 0.01,
            f"{n_tri} triangles / {n_vert} vertices (targets 6340/3333 +-5%), "
            f"min quality {quality:.3f}, area err {area_err:.2e}")


# Criterion 12's artifact set: CLI subcommands run at their defaults but for
# these overrides, which keep each one small.
_ARTIFACT_RUNS = (
    ("spectrum", {"k_max": 4, "l_count": 2}),
    ("eigenmode", {"resolution": 120}),
    ("classify", {"n_alpha": 60, "n_beta": 60, "gamma": 21.0, "d": 8.0}),
    ("curves", {"alpha_min": 0.01, "alpha_max": 0.99, "n_samples": 25}),
    ("mesh", {"h": 0.15}),
    ("simulate", {"h": 0.15, "t_end": 0.05, "threshold": 0.0, "snapshots": (0.05,)}),
)


def _artifact_set(out_dir: Path) -> dict[str, str]:
    """Write the files of every exporting subcommand into out_dir; digest each."""
    from . import cli  # cli imports this module at load time

    digests = {}
    for subcommand, overrides in _ARTIFACT_RUNS:
        paths, _, _ = cli.execute(subcommand, out_dir, **overrides)
        digests.update((p.name, sha256_file(p)) for p in paths)
    return digests


@criterion(12, "artifact determinism")
def criterion_12():
    """The artifact pipeline is bit-reproducible: two runs, identical digests."""
    with tempfile.TemporaryDirectory(prefix="verify-determinism-") as tmp:
        first = _artifact_set(Path(tmp) / "run1")
        second = _artifact_set(Path(tmp) / "run2")
    same_names = set(first) == set(second)
    differing = [name for name in first if same_names and first[name] != second[name]]
    passed = same_names and not differing
    return passed, (f"{len(first)} artifacts, digests identical" if passed
                    else f"mismatch: {differing or 'different file sets'}")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_all() -> list[CriterionResult]:
    """Run the full battery in order. Criteria 9/10 dominate the runtime."""
    return [fn() for fn in ALL_CRITERIA]


def format_table(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
