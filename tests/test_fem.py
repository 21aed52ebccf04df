"""FEM: assembly, IMEX stepping, simulation runs, monitors, exports."""

import numpy as np
import pytest
from scipy.sparse import bmat, diags
from scipy.sparse.linalg import spsolve

from annulus_rd import fem
from annulus_rd.fem import (
    FemError,
    FemInputError,
    FemState,
    RunConfig,
    RunRecord,
    assemble,
    export_monitor,
    export_snapshot,
    initial_conditions,
    l2_time_derivative,
    monitor_peaks,
    simulate,
)
from annulus_rd.geometry import TriMesh, make_annulus, triangulate_annulus
from annulus_rd.stability import KineticParams, reaction_terms, steady_state

GEOM = make_annulus(0.5, 1.0)
TURING = KineticParams(0.09, 0.45, 250.0, 10.0)
# kinetics stable at eta^2 = 0 and no Turing band anywhere: runs decay
STABLE = KineticParams(0.3, 0.2, 250.0, 10.0)
# mild kinetics for convergence studies: trajectories stay smooth and finite
# up to t = 1 (they oscillate later, so the monitor does not decay monotonically)
DAMPED = KineticParams(0.15, 0.25, 25.0, 10.0)
# criterion 10's oscillatory set: stiff relaxation kinetics
HOPF = KineticParams(0.05, 0.55, 730.0, 5.0)


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
    for threshold in (-1e-3, float("nan")):
        with pytest.raises(FemError, match="threshold"):
            RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, threshold=threshold)
    # a time past t_end is never reached, one at or before t = 0 would be
    # taken at step 1 under the wrong name
    for t_snap in (float("nan"), float("inf"), 1.5, 0.0, -1.0):
        with pytest.raises(FemError, match="snapshot"):
            RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, snapshot_times=(0.5, t_snap))
    at_end = RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, snapshot_times=(1.0,))
    assert at_end.snapshot_times == (1.0,)
    # t_end = 0.0104 rounds to 10 steps, so the run ends at t = 0.010
    with pytest.raises(FemError, match="snapshot"):
        RunConfig(TURING, mesh, dt=1e-3, t_end=0.0104, snapshot_times=(0.0102,))
    for kinetics in ("semi", "explicit"):
        with pytest.raises(FemError, match="'split' or 'implicit'"):
            RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics=kinetics)
    # t_end under half a step rounds to zero steps; a step count that
    # overflows is no better
    with pytest.raises(FemError, match="step count"):
        RunConfig(TURING, mesh, dt=1e-3, t_end=1e-4)
    with pytest.raises(FemError, match="step count"):
        RunConfig(TURING, mesh, dt=1e-3, t_end=float("inf"))
    assert RunConfig(TURING, mesh, dt=1e-3, t_end=6e-4).t_end == 6e-4  # one step


@pytest.mark.parametrize("kinetics", ["split", "implicit"])
def test_steady_state_is_fixed_point(coarse, kinetics):
    mesh, ops = coarse
    ss = steady_state(TURING)
    n = len(mesh.vertices)
    state = FemState(np.full(n, ss.u_s), np.full(n, ss.v_s), 0.0, 0)
    stepper = fem._Stepper(ops, RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics=kinetics))
    for _ in range(3):
        state = stepper.step(state)
    assert np.abs(state.u - ss.u_s).max() < 1e-12
    assert np.abs(state.v - ss.v_s).max() < 1e-12
    assert state.step == 3
    assert state.t == pytest.approx(3e-3, rel=1e-12)


@pytest.mark.parametrize("kinetics", ["split", "implicit"])
def test_step_matches_semidiscrete_rhs(coarse, kinetics):
    # one tiny step reproduces du/dt = -M^-1 K u + gamma f(u, v); the
    # azimuthal profile x/r satisfies the natural boundary condition
    mesh, ops = coarse
    ss = steady_state(TURING)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    prof = 0.05 * x / np.hypot(x, y)
    u0 = ss.u_s + prof
    v0 = ss.v_s + prof
    dt = 1e-6
    cfg = RunConfig(TURING, mesh, dt=dt, t_end=1.0, threshold=0.0, kinetics=kinetics)
    state = fem._Stepper(ops, cfg).step(FemState(u0.copy(), v0.copy(), 0.0, 0))

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
    ("implicit", 1),   # only its block Jacobian, never refreshed in these 10 steps
])
def test_diffusion_factored_once_per_run(coarse, monkeypatch, kinetics, factorizations):
    mesh, ops = coarse
    calls = []
    original = fem.splu
    monkeypatch.setattr(fem, "splu",
                        lambda A, **kw: calls.append((A.shape, kw)) or original(A, **kw))
    cfg = RunConfig(DAMPED, mesh, dt=1e-3, t_end=0.01, threshold=0.0, kinetics=kinetics)
    rec = simulate(cfg, ops)
    assert rec.final.step == 10
    assert len(calls) == factorizations
    assert rec.factorizations == factorizations
    # two diffusion solves a step; three chord corrections a step
    assert rec.lu_solves == {"split": 20, "implicit": 30}[kinetics]
    n = len(mesh.vertices)
    # the block Jacobian is ordered in symmetric mode; the diffusion factors
    # keep splu's default COLAMD, whose solves feed criterion 12's digests
    expected = (((2 * n, 2 * n), {"permc_spec": "MMD_AT_PLUS_A",
                                  "options": {"SymmetricMode": True}})
                if kinetics == "implicit" else ((n, n), {}))
    assert all(call == expected for call in calls)


def _block_jacobian(A_u, A_v, M, a, u, v):
    """The backward-Euler Jacobian assembled block by block.

    The derivatives of f and g are written out here, independently of
    stability.reaction_jacobian, which the solver's Jacobian uses.
    """
    return bmat([[A_u - a * (M @ diags(2.0 * u * v - 1.0)), -a * (M @ diags(u * u))],
                 [a * (M @ diags(2.0 * u * v)), A_v + a * (M @ diags(u * u))]], format="csc")


def _mass(ops, lumped):
    return diags(ops.lumped).tocsr() if lumped else ops.mass


def _newton_step(ops, params, dt, state, M):
    """One backward-Euler step by full Newton, a fresh Jacobian per iteration."""
    K = ops.stiffness
    a = dt * params.gamma
    A_u, A_v = M + dt * K, M + dt * params.d * K
    n = len(state.u)
    u, v = state.u.copy(), state.v.copy()
    for _ in range(30):
        f, g = reaction_terms(params, u, v)
        F = np.concatenate([A_u @ u - M @ state.u - a * (M @ f),
                            A_v @ v - M @ state.v - a * (M @ g)])
        delta = spsolve(_block_jacobian(A_u, A_v, M, a, u, v), F)
        u, v = u - delta[:n], v - delta[n:]
        if np.abs(delta).max() <= 1e-14 * max(np.abs(u).max(), np.abs(v).max()):
            return u, v
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("params, lumped", [
    pytest.param(TURING, False, id="turing"),
    pytest.param(DAMPED, False, id="damped"),
    pytest.param(TURING, True, id="turing-lumped"),
])
def test_implicit_chord_matches_full_newton(coarse, params, lumped):
    # each chord step (extrapolated start, reused factor) against full Newton
    # from the same old state. The chord stops at a residual of 1e-11, which
    # on this mesh leaves about 1.5e-9 relative in the state; the bound is 1e-8.
    mesh, ops = coarse
    dt = 1e-3
    stepper = fem._Stepper(ops, RunConfig(params, mesh, dt=dt, t_end=1.0, lumped=lumped,
                                          kinetics="implicit"))
    state = initial_conditions(params, mesh)
    worst = 0.0
    for _ in range(200):
        new = stepper.step(state)
        u, v = _newton_step(ops, params, dt, state, _mass(ops, lumped))
        worst = max(worst, np.abs(new.u - u).max() / np.abs(u).max(),
                    np.abs(new.v - v).max() / np.abs(v).max())
        state = new
    assert worst < 1e-8


def _factored_jacobian(monkeypatch, stepper, w):
    """The matrix _factorize hands to splu at the stacked state w."""
    factored = []
    original = fem.splu
    monkeypatch.setattr(fem, "splu", lambda A, **kw: factored.append(A) or original(A, **kw))
    stepper._factorize(w)
    return factored[0]


@pytest.mark.parametrize("lumped", [False, True])
def test_implicit_jacobian_equals_block_construction(coarse, monkeypatch, lumped):
    # J = A2 - a M2 D on the stacked operators, entry for entry the
    # four-block construction, at a state with no structure of its own
    mesh, ops = coarse
    dt, n = 1e-3, len(mesh.vertices)
    stepper = fem._Stepper(ops, RunConfig(TURING, mesh, dt=dt, t_end=1.0, lumped=lumped,
                                          kinetics="implicit"))
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 3.0, n)
    J = _factored_jacobian(monkeypatch, stepper, np.concatenate([u, v]))
    M, K = _mass(ops, lumped), ops.stiffness
    J_ref = _block_jacobian(M + dt * K, M + dt * TURING.d * K, M, dt * TURING.gamma, u, v)
    assert J.shape == J_ref.shape == (2 * n, 2 * n)
    assert J.nnz == J_ref.nnz
    assert (J - J_ref).nnz == 0


@pytest.mark.parametrize("lumped", [False, True])
def test_implicit_factor_pivots_stiff_state(coarse, monkeypatch, lumped):
    # a stiff iterate (dt gamma = 7.3, u up to 15) whose v makes every u-row
    # diagonal of J vanish: the factor must still pivot off the diagonal. With
    # diag_pivot_thresh=0 the lumped case's backward error is about 3e-3.
    mesh, ops = coarse
    params = KineticParams(0.05, 0.55, 730.0, 5.0)
    dt, n = 1e-2, len(mesh.vertices)
    stepper = fem._Stepper(ops, RunConfig(params, mesh, dt=dt, t_end=1.0, lumped=lumped,
                                          kinetics="implicit"))
    rng = np.random.default_rng(11)
    u = rng.uniform(1.0, 15.0, n)
    a = dt * params.gamma
    v = (stepper.A_u.diagonal() / (a * stepper.M.diagonal()) + 1.0) / (2.0 * u)
    J = _factored_jacobian(monkeypatch, stepper, np.concatenate([u, v]))
    assert np.abs(J.diagonal()[:n]).max() < 1e-12 * np.abs(J).max()
    r = rng.standard_normal(2 * n)
    x = stepper._lu.solve(r)
    norm_J = np.abs(J).sum(axis=1).max()
    backward = np.abs(J @ x - r).max() / (norm_J * np.abs(x).max() + np.abs(r).max())
    assert backward <= 1e-14


def test_implicit_start_falls_back_to_old_state(coarse):
    mesh, ops = coarse
    dt = 1e-3
    stepper = fem._Stepper(ops, RunConfig(DAMPED, mesh, dt=dt, t_end=1.0, kinetics="implicit"))
    s0 = initial_conditions(DAMPED, mesh)
    s1 = stepper.step(s0)
    # a state that does not follow the last step starts from itself, so
    # stepping s0 again repeats the first step exactly (DAMPED keeps the
    # first factor through these steps)
    again = stepper.step(s0)
    assert np.array_equal(again.u, s1.u) and np.array_equal(again.v, s1.v)
    # an extrapolation whose residual overflows restarts from the old state;
    # simulate steps under the same errstate
    stepper._prev = FemState(np.full_like(s0.u, -1e300), s0.v, s0.t, s0.step)
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = stepper.step(s1)
    u, v = _newton_step(ops, DAMPED, dt, s1, ops.mass)
    assert np.abs(s2.u - u).max() < 1e-8 * np.abs(u).max()
    assert np.abs(s2.v - v).max() < 1e-8 * np.abs(v).max()


def test_implicit_decay_has_no_jitter(coarse):
    # once the decay to the uniform state is past t = 0.5, the monitor falls
    # monotonically to round-off. Accepting the extrapolated start without a
    # correction leaves its error in the state, and the monitor then rises
    # by up to 2e-10 (u) and 1.5e-8 (v) from step to step.
    mesh, ops = coarse
    cfg = RunConfig(STABLE, mesh, dt=1e-3, t_end=1.0, threshold=0.0, kinetics="implicit")
    rec = simulate(cfg, ops)
    tail = rec.monitor[rec.monitor[:, 0] >= 0.5]
    assert np.diff(tail[:, 1:], axis=0).max() < 1e-10


@pytest.mark.parametrize("lumped", [False, True])
def test_split_diffusion_solve_matches_spsolve(coarse, lumped):
    # the diffusion half of a split step, through the cached LU factors,
    # against a fresh direct solve of the same system
    mesh, ops = coarse
    rng = np.random.default_rng(5)
    u0, v0 = rng.uniform(-1.0, 1.0, (2, len(mesh.vertices)))
    dt = 1e-3
    cfg = RunConfig(TURING, mesh, dt=dt, t_end=1.0, lumped=lumped)
    u, v = np.split(fem._Stepper(ops, cfg)._diffuse(np.concatenate([u0, v0]), 0), 2)
    M = diags(ops.lumped) if lumped else ops.mass
    for got, c, old in ((u, 1.0, u0), (v, TURING.d, v0)):
        ref = spsolve((M + dt * c * ops.stiffness).tocsc(), M @ old)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_step_deterministic(coarse):
    mesh, ops = coarse
    state = initial_conditions(TURING, mesh)
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=1.0)
    s1 = fem._Stepper(ops, cfg).step(state)
    s2 = fem._Stepper(ops, cfg).step(state)
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


def test_lumped_diffusion_max_principle(coarse):
    # the diffusion solve simulate runs, for both species' coefficients; with
    # the consistent mass matrix the nodal spike would undershoot below 0
    mesh, ops = coarse
    rng = np.random.default_rng(7)
    spike = np.zeros(len(mesh.vertices))
    spike[len(spike) // 2] = 1.0
    lumped, consistent = (fem._Stepper(ops, RunConfig(TURING, mesh, dt=1e-3, t_end=1.0,
                                                      lumped=flag)) for flag in (True, False))
    for w in (rng.uniform(-1.0, 2.0, len(mesh.vertices)), spike):
        for out in np.split(lumped._diffuse(np.concatenate([w, w]), 0), 2):
            assert out.min() >= w.min() - 1e-12
            assert out.max() <= w.max() + 1e-12
            # both mass forms conserve the discrete integral
            assert (ops.lumped * out).sum() == pytest.approx((ops.lumped * w).sum(), rel=1e-8)
        for out_c in np.split(consistent._diffuse(np.concatenate([w, w]), 0), 2):
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
def test_diverging_split_run_aborts(medium):
    # at gamma = 1e6 and dt = 0.5 the first half step would need about 1.2e6
    # RK4 substeps; the run must abort, not limp on, and report it by its
    # FemError alone, without numpy warnings
    mesh, ops = medium
    params = KineticParams(TURING.alpha, TURING.beta, 1e6, TURING.d)
    cfg = RunConfig(params, mesh, dt=0.5, t_end=1.0, threshold=0.0, kinetics="split")
    with pytest.raises(FemError, match="substep count .* at step 0; state diverging"):
        simulate(cfg, ops)


def test_simulate_refuses_operators_of_another_mesh(coarse, medium):
    # the first sparse product failed with scipy's dimension-mismatch ValueError
    mesh, _ = coarse
    _, other_ops = medium
    with pytest.raises(FemError, match="do not fit"):
        simulate(RunConfig(TURING, mesh, dt=1e-3, t_end=0.01), other_ops)


def test_refused_inputs_are_value_errors(coarse, medium):
    # a refused input is a ValueError, so the CLI exits 4, and still a
    # FemError; a failed computation is neither a ValueError nor exit 4
    mesh, ops = coarse
    _, other_ops = medium
    config = RunConfig(TURING, mesh, dt=1e-3, t_end=0.01)
    state = initial_conditions(TURING, mesh)
    refusals = (
        lambda: RunConfig(TURING, mesh, dt=-1.0, t_end=1.0),
        lambda: RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics="explicit"),
        lambda: FemState(np.zeros(3), np.zeros(4), 0.0),
        lambda: simulate(config, other_ops),
        lambda: l2_time_derivative(state, state, 0.0, ops),
        lambda: monitor_peaks(_synthetic_record(mesh), species="w"),
    )
    for refuse in refusals:
        with pytest.raises(FemInputError) as info:
            refuse()
        assert isinstance(info.value, ValueError) and isinstance(info.value, FemError)

    params = KineticParams(TURING.alpha, TURING.beta, 1e6, TURING.d)
    diverging = RunConfig(params, mesh, dt=0.5, t_end=1.0, threshold=0.0)
    with np.errstate(over="ignore"), pytest.raises(FemError) as info:
        simulate(diverging, ops)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("u", [1e3, 1e160])
def test_split_kinetics_substep_guard(coarse, u):
    # a finite state whose rate bound overflows to inf raised OverflowError
    # from the int substep count; both sizes are refused as diverging
    mesh, ops = coarse
    stepper = fem._Stepper(ops, RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics="split"))
    w = np.full(2 * len(mesh.vertices), u)
    with np.errstate(over="ignore"), pytest.raises(FemError, match="at step 7; state diverging"):
        stepper._kinetics_interval(w, 5e-4, 7)


def _reference_interval(params, w, span):
    """Split kinetics over span by the allocating RK4 formula and its substep rule.

    Written out independently of the solver's buffered form: a new array
    per operation, the rate bound from the derivatives of f and g.
    """
    gamma = params.gamma
    n = len(w) // 2
    u, v = w[:n], w[n:]
    rate = np.maximum(np.abs(2.0 * u * v - 1.0) + np.abs(u * u),
                      np.abs(-(2.0 * u * v)) + np.abs(-(u * u)))
    m = max(int(np.ceil(span * gamma * max(float(rate.max()), 1.0) / 0.5)), 1)
    h = span / m

    def F(x):
        return np.concatenate(reaction_terms(params, x[:n], x[n:]))

    for _ in range(m):
        k1 = F(w)
        k2 = F(w + 0.5 * h * gamma * k1)
        k3 = F(w + 0.5 * h * gamma * k2)
        k4 = F(w + h * gamma * k3)
        w = w + (h / 6.0) * gamma * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w, m


@pytest.mark.parametrize("params, u_range, v_range, min_substeps", [
    pytest.param(HOPF, (0.5, 9.0), (0.02, 0.4), 24, id="hopf-stiff"),
    pytest.param(TURING, (0.3, 0.8), (1.2, 1.9), 1, id="turing"),
])
def test_kinetics_interval_bit_identical_to_allocating_rk4(coarse, params, u_range, v_range,
                                                         min_substeps):
    # the buffered, in-place RK4 against the textbook allocating formula:
    # equal bit for bit, over three intervals so the buffers are reused (the
    # stiff state relaxes: 62, 33 and 17 substeps)
    mesh, ops = coarse
    n = len(mesh.vertices)
    stepper = fem._Stepper(ops, RunConfig(params, mesh, dt=1e-3, t_end=1.0, kinetics="split"))
    rng = np.random.default_rng(17)
    w = np.concatenate([rng.uniform(*u_range, n), rng.uniform(*v_range, n)])
    counts = []
    for interval in range(3):
        start = w.copy()
        before = stepper.kinetics_substeps
        got = stepper._kinetics_interval(w, 5e-4, interval)
        ref, m = _reference_interval(params, w, 5e-4)
        assert np.array_equal(w, start)  # the input is not written
        assert np.array_equal(got, ref)
        counts.append(stepper.kinetics_substeps - before)
        assert counts[-1] == m
        w = got
    assert counts[0] >= min_substeps
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("kinetics", ["split", "implicit"])
def test_step_returns_state_apart_from_stepper_buffers(coarse, kinetics):
    # a returned state shares no memory with the per-run buffers and is not
    # changed by later steps
    mesh, ops = coarse
    stepper = fem._Stepper(ops, RunConfig(TURING, mesh, dt=1e-3, t_end=1.0, kinetics=kinetics))
    buffers = [a for value in vars(stepper).values()
               for a in (value if isinstance(value, tuple) else (value,))
               if isinstance(a, np.ndarray)]
    assert len(buffers) == {"split": 6, "implicit": 1}[kinetics]
    state = initial_conditions(TURING, mesh)
    first = stepper.step(state)
    kept = (first.u.copy(), first.v.copy())
    for array in (first.u, first.v):
        assert not any(np.shares_memory(array, buf) for buf in buffers)
    later = stepper.step(stepper.step(first))
    assert np.array_equal(first.u, kept[0]) and np.array_equal(first.v, kept[1])
    assert not (np.shares_memory(later.u, first.u) or np.shares_memory(later.v, first.v))


def test_snapshots_stay_distinct(coarse):
    # snapshots at consecutive steps keep their own values after the run
    mesh, ops = coarse
    cfg = RunConfig(TURING, mesh, dt=1e-3, t_end=0.004, threshold=0.0,
                    snapshot_times=(0.001, 0.002, 0.003))
    rec = simulate(cfg, ops)
    stepper = fem._Stepper(ops, cfg)
    state = initial_conditions(TURING, mesh)
    for (_, snap) in rec.snapshots:
        state = stepper.step(state)
        assert snap.step == state.step
        assert np.array_equal(snap.u, state.u) and np.array_equal(snap.v, state.v)
    arrays = [a for _, s in rec.snapshots for a in (s.u, s.v)] + [rec.final.u, rec.final.v]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


@pytest.mark.parametrize("kinetics", ["split", "implicit"])
def test_run_counts_kinetics_substeps(coarse, monkeypatch, kinetics):
    # each RK4 substep evaluates the reaction terms four times; the implicit
    # treatment runs no substeps. The count is a property of the run.
    mesh, ops = coarse
    calls = []
    original = fem.reaction_terms
    monkeypatch.setattr(fem, "reaction_terms",
                        lambda *args, **kw: calls.append(1) or original(*args, **kw))
    cfg = RunConfig(HOPF, mesh, dt=1e-3, t_end=0.02, threshold=0.0, kinetics=kinetics)
    rec = simulate(cfg, ops)
    if kinetics == "split":
        assert rec.kinetics_substeps >= 2 * rec.final.step
        assert len(calls) == 4 * rec.kinetics_substeps
    else:
        assert rec.kinetics_substeps == 0 and len(calls) > 0
    assert simulate(cfg, ops).kinetics_substeps == rec.kinetics_substeps


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
    # an unknown species raised a bare KeyError
    with pytest.raises(FemError, match="'u' or 'v'"):
        monitor_peaks(rec, species="w")


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


def test_snapshots_taken_by_step_index(coarse):
    # t_end = 0.0796 rounds up to 8 steps of 0.01, so 0.0799 is reached by
    # the last one; 0.07 is taken at step 7, although 0.07/0.01 rounds to
    # 7.000000000000001
    mesh, ops = coarse
    cfg = RunConfig(TURING, mesh, dt=0.01, t_end=0.0796, threshold=0.0,
                    snapshot_times=(0.0799, 0.07, 0.005))
    rec = simulate(cfg, ops)
    assert [(t, s.step) for t, s in rec.snapshots] == [(0.005, 1), (0.07, 7), (0.0799, 8)]
    assert rec.snapshots[-1][1].t == rec.final.t


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
