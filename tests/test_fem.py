"""FEM: assembly, IMEX stepping, simulation runs, monitors, exports."""

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from annulus_rd import fem
from annulus_rd.fem import (
    FemError,
    FemState,
    RunConfig,
    RunRecord,
    assemble,
    diffusion_step,
    export_monitor,
    export_snapshot,
    initial_conditions,
    l2_time_derivative,
    monitor_peaks,
    simulate,
    step_imex,
)
from annulus_rd.geometry import TriMesh, make_annulus, triangulate_annulus
from annulus_rd.stability import KineticParams, reaction_terms, steady_state

GEOM = make_annulus(0.5, 1.0)
TURING = KineticParams(0.09, 0.45, 250.0, 10.0)
# kinetics stable at eta^2 = 0 and no Turing band anywhere: runs decay
STABLE = KineticParams(0.3, 0.2, 250.0, 10.0)
# mild decay for convergence studies: trajectories stay smooth and finite
DAMPED = KineticParams(0.15, 0.25, 25.0, 10.0)


@pytest.fixture(scope="module")
def coarse():
    mesh = triangulate_annulus(GEOM, 0.2)
    return mesh, assemble(mesh)


@pytest.fixture(scope="module")
def medium():
    mesh = triangulate_annulus(GEOM, 0.15)
    return mesh, assemble(mesh)


def test_assembly_invariants(coarse):
    mesh, ops = coarse
    n = len(mesh.vertices)
    K, M = ops.stiffness, ops.mass
    assert K.shape == (n, n) and M.shape == (n, n)

    # stiffness annihilates constants; mass integrates them
    ones = np.ones(n)
    assert np.abs(K @ ones).max() < 1e-12
    assert M.sum() == pytest.approx(GEOM.area, rel=0.01)
    assert M.sum() == pytest.approx(float(ops.lumped.sum()), rel=1e-12)

    assert np.abs((K - K.T)).max() < 1e-13
    assert np.abs((M - M.T)).max() < 1e-15
    assert ops.lumped.min() > 0.0

    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert x @ (K @ x) > -1e-10
        assert x @ (M @ x) > 0.0


def test_degenerate_triangle_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    triangles = np.array([[0, 1, 2]])
    flags = np.zeros(3, dtype=np.int8)
    mesh = TriMesh(vertices, triangles, flags, 0.5, 1.0, 0.1)
    with pytest.raises(FemError):
        assemble(mesh)


def test_initial_conditions_recipe():
    vertices = np.array([[1.0, 0.0], [0.75, 0.0], [0.5, 0.5]])
    mesh = TriMesh(vertices, np.array([[0, 1, 2]]), np.zeros(3, dtype=np.int8),
                   0.5, 1.0, 0.1)
    state = initial_conditions(TURING, mesh)
    ss = steady_state(TURING)
    # x=1: the eight-cosine sum telescopes to zero, cos(2 pi) = 1
    assert state.u[0] - ss.u_s == pytest.approx(0.0016, abs=1e-12)
    # x=0.75, y=0: every contribution cancels
    assert state.u[1] - ss.u_s == pytest.approx(0.0, abs=1e-12)
    assert state.t == 0.0 and state.step == 0
    np.testing.assert_allclose(state.u - ss.u_s, state.v - ss.v_s, atol=1e-14)


def test_state_length_mismatch():
    with pytest.raises(FemError):
        FemState(np.zeros(3), np.zeros(4), 0.0)


def test_runconfig_validation(coarse):
    mesh, _ = coarse
    with pytest.raises(FemError):
        RunConfig(TURING, mesh, dt=0.0, t_end=1.0)
    with pytest.raises(FemError):
        RunConfig(TURING, mesh, dt=1e-3, t_end=0.0)
    with pytest.raises(FemError):
        RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, threshold=-1e-3)
    with pytest.raises(FemError):
        RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics="semi")
    # t_end under half a step rounds to zero steps; a step count that
    # overflows is no better
    with pytest.raises(FemError, match="step count"):
        RunConfig(TURING, mesh, dt=1e-3, t_end=1e-4)
    with pytest.raises(FemError, match="step count"):
        RunConfig(TURING, mesh, dt=1e-3, t_end=float("inf"))
    assert RunConfig(TURING, mesh, dt=1e-3, t_end=6e-4).t_end == 6e-4  # one step


@pytest.mark.parametrize("kinetics", ["split", "implicit", "explicit"])
def test_steady_state_is_fixed_point(coarse, kinetics):
    mesh, ops = coarse
    ss = steady_state(TURING)
    n = len(mesh.vertices)
    state = FemState(np.full(n, ss.u_s), np.full(n, ss.v_s), 0.0, 0)
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics=kinetics)
    for _ in range(3):
        state = step_imex(state, ops, cfg)
    assert np.abs(state.u - ss.u_s).max() < 1e-12
    assert np.abs(state.v - ss.v_s).max() < 1e-12
    assert state.step == 3
    assert state.t == pytest.approx(3e-3, rel=1e-12)


def test_explicit_step_matches_semidiscrete_rhs(coarse):
    # one tiny explicit step reproduces du/dt = -M^-1 K u + gamma f(u, v);
    # the azimuthal profile x/r satisfies the natural boundary condition
    mesh, ops = coarse
    ss = steady_state(TURING)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    prof = 0.05 * x / np.hypot(x, y)
    u0 = ss.u_s + prof
    v0 = ss.v_s + prof
    dt = 1e-6
    cfg = RunConfig(TURING, mesh, dt=dt, t_end=1.0, threshold=0.0,
                    kinetics="explicit")
    state = step_imex(FemState(u0.copy(), v0.copy(), 0.0, 0), ops, cfg)

    f0, g0 = reaction_terms(TURING, u0, v0)
    M = ops.mass.tocsc()
    rhs_u = -spsolve(M, ops.stiffness @ u0) + TURING.gamma * f0
    rhs_v = -TURING.d * spsolve(M, ops.stiffness @ v0) + TURING.gamma * g0
    err_u = np.abs((state.u - u0) / dt - rhs_u).max() / np.abs(rhs_u).max()
    err_v = np.abs((state.v - v0) / dt - rhs_v).max() / np.abs(rhs_v).max()
    assert err_u < 1e-4
    # the faster-diffusing species amplifies the P1 interpolation wiggle
    # through its d-scaled stiffness term; its band is wider
    assert err_v < 1e-3


@pytest.mark.parametrize("kinetics, factorizations", [
    ("split", 2),      # A_u and A_v, once per run, not per step
    ("explicit", 2),
    ("implicit", 4),   # only its block Jacobian: 4 refreshes in these 10 steps
])
def test_diffusion_factored_once_per_run(coarse, monkeypatch, kinetics, factorizations):
    mesh, ops = coarse
    calls = []
    original = fem.splu
    monkeypatch.setattr(fem, "splu", lambda A, **kw: calls.append(A.shape) or original(A, **kw))
    cfg = RunConfig(DAMPED, mesh, dt=1e-3, t_end=0.01, threshold=0.0, kinetics=kinetics)
    rec = simulate(cfg, ops)
    assert rec.final.step == 10
    assert len(calls) == factorizations
    n = len(mesh.vertices)
    block = (2 * n, 2 * n) if kinetics == "implicit" else (n, n)
    assert all(shape == block for shape in calls)


@pytest.mark.parametrize("lumped", [False, True])
def test_split_diffusion_solve_matches_spsolve(coarse, lumped):
    # the diffusion half of a split step, through the cached LU factors,
    # against a fresh direct solve of the same system; the public one-shot
    # diffusion_step solves it the same way
    mesh, ops = coarse
    rng = np.random.default_rng(5)
    u0, v0 = rng.uniform(-1.0, 1.0, (2, len(mesh.vertices)))
    dt = 1e-3
    cfg = RunConfig(TURING, mesh, dt=dt, t_end=1.0, lumped=lumped)
    u, v = fem._Stepper(ops, cfg)._diffuse(u0, v0, 0)
    M = diags(ops.lumped) if lumped else ops.mass
    for got, c, old in ((u, 1.0, u0), (v, TURING.d, v0)):
        ref = spsolve((M + dt * c * ops.stiffness).tocsc(), M @ old)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(diffusion_step(ops, old, dt, c, lumped), got)


@pytest.mark.parametrize("kinetics", ["implicit", "split"])
def test_error_first_order_in_dt(medium, kinetics):
    mesh, ops = medium
    def final_u(dt):
        cfg = RunConfig(DAMPED, mesh, dt=dt, t_end=1.0, threshold=0.0,
                        kinetics=kinetics)
        return simulate(cfg, ops).final.u

    ref = final_u(2.5e-4)
    dts = np.array([4e-3, 2e-3, 1e-3])
    errs = np.array([np.abs(final_u(dt) - ref).max() for dt in dts])
    assert np.all(errs > 0.0)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 0.8


def test_step_imex_deterministic(coarse):
    mesh, ops = coarse
    state = initial_conditions(TURING, mesh)
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=1.0)
    s1 = step_imex(state, ops, cfg)
    s2 = step_imex(state, ops, cfg)
    assert np.array_equal(s1.u, s2.u) and np.array_equal(s1.v, s2.v)
    assert s1.t == 1e-3 and s1.step == 1


def test_l2_time_derivative_permutation_invariant(coarse):
    mesh, ops = coarse
    n = len(mesh.vertices)
    rng = np.random.default_rng(11)
    a = FemState(rng.standard_normal(n), rng.standard_normal(n), 0.0, 0)
    b = FemState(rng.standard_normal(n), rng.standard_normal(n), 0.01, 1)
    rate = l2_time_derivative(a, b, 0.01, ops)

    perm = rng.permutation(n)
    newpos = np.empty(n, dtype=np.int64)
    newpos[perm] = np.arange(n)
    pmesh = TriMesh(mesh.vertices[perm], newpos[mesh.triangles],
                    mesh.boundary_flags[perm], mesh.a, mesh.b, mesh.h)
    pops = assemble(pmesh)
    pa = FemState(a.u[perm], a.v[perm], 0.0, 0)
    pb = FemState(b.u[perm], b.v[perm], 0.01, 1)
    prate = l2_time_derivative(pa, pb, 0.01, pops)
    assert prate[0] == pytest.approx(rate[0], rel=1e-12)
    assert prate[1] == pytest.approx(rate[1], rel=1e-12)

    assert l2_time_derivative(a, a, 0.01, ops) == (0.0, 0.0)
    with pytest.raises(FemError):
        l2_time_derivative(a, b, 0.0, ops)


def test_lumped_diffusion_step_max_principle(coarse):
    mesh, ops = coarse
    rng = np.random.default_rng(7)
    w = rng.uniform(-1.0, 2.0, len(mesh.vertices))
    out = diffusion_step(ops, w, 1e-3, lumped=True)
    assert out.min() >= w.min() - 1e-12
    assert out.max() <= w.max() + 1e-12
    # both mass forms conserve the discrete integral
    assert (ops.lumped * out).sum() == pytest.approx((ops.lumped * w).sum(), rel=1e-8)
    out_c = diffusion_step(ops, w, 1e-3, lumped=False)
    assert (ops.mass @ out_c).sum() == pytest.approx((ops.mass @ w).sum(), rel=1e-8)


def test_simulate_runs_to_t_end(coarse):
    mesh, ops = coarse
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=0.01, threshold=0.0,
                    snapshot_times=(0.005,))
    rec = simulate(cfg, ops)
    assert rec.termination == "t_end"
    assert rec.monitor.shape == (10, 3)
    assert rec.final.t == pytest.approx(0.01, rel=1e-12)
    assert len(rec.snapshots) == 1
    t_req, snap = rec.snapshots[0]
    assert t_req == 0.005 and snap.t >= 0.005 - 1e-12


def test_simulate_stable_point_stops_on_threshold(medium):
    mesh, ops = medium
    rec = simulate(RunConfig(STABLE, mesh, dt=1e-3, t_end=30.0), ops)
    assert rec.termination == "threshold"
    assert rec.final.t < 1.0  # decays quickly, far before t_end
    ss = steady_state(STABLE)
    assert np.abs(rec.final.u - ss.u_s).max() < 1e-3
    assert np.abs(rec.final.v - ss.v_s).max() < 1e-3


@pytest.mark.filterwarnings("error")
def test_explicit_kinetics_blows_up(medium):
    # the stiff activator kinetics overwhelm a plain explicit treatment
    # at the pattern-forming parameters; the run must abort, not limp on,
    # and report the blow-up by its FemError alone, without numpy warnings
    mesh, ops = medium
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=2.0, threshold=0.0,
                    kinetics="explicit")
    with pytest.raises(FemError, match="at step"):
        simulate(cfg, ops)


def _synthetic_record(coarse_mesh):
    cfg = RunConfig(STABLE, coarse_mesh, dt=0.01, t_end=10.0)
    t = np.arange(1, 1001) * 0.01
    y = np.zeros_like(t)
    for center, height in ((1.0, 0.01), (5.0, 0.01), (5.2, 0.008), (8.0, 1e-4)):
        y += height * np.exp(-(((t - center) / 0.05) ** 2))
    return RunRecord(cfg, monitor=np.column_stack([t, y, 0.5 * y]))


def test_monitor_peaks(coarse):
    mesh, _ = coarse
    rec = _synthetic_record(mesh)
    # t=1 is inside the transient cut, t=5.2 merges into the t=5 peak,
    # t=8 is below the height floor
    np.testing.assert_allclose(monitor_peaks(rec), [5.0])
    np.testing.assert_allclose(monitor_peaks(rec, species="v"), [5.0])
    np.testing.assert_allclose(monitor_peaks(rec, min_height=1e-5), [5.0, 8.0])
    np.testing.assert_allclose(monitor_peaks(rec, start_time=0.0), [1.0, 5.0])

    short = RunRecord(rec.config, monitor=rec.monitor[:100])
    assert monitor_peaks(short).shape == (0,)


def test_monitor_export_deterministic(tmp_path, coarse):
    mesh, ops = coarse
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=0.02, threshold=0.0)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    export_monitor(simulate(cfg, ops), p1)
    export_monitor(simulate(cfg, ops), p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "t,rate_u,rate_v"
    assert len(lines) == 1 + 20
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(1e-3, rel=1e-12)


def test_snapshot_export_roundtrip(tmp_path, coarse):
    mesh, ops = coarse
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=0.01, threshold=0.0)
    rec = simulate(cfg, ops)
    path = tmp_path / "final.txt"
    export_snapshot(mesh, rec.final, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# t=0.01") and "step=10" in lines[0]
    assert len(lines) == 1 + len(mesh.vertices)
    x, y, u, v = map(float, lines[1].split())
    assert x == mesh.vertices[0, 0] and y == mesh.vertices[0, 1]
    assert u == rec.final.u[0] and v == rec.final.v[0]
