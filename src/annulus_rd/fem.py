"""P1 finite element solver for the reaction-diffusion system on the annulus.

The system

    du/dt = lap(u) + gamma f(u, v),    f = alpha - u + u^2 v,
    dv/dt = d lap(v) + gamma g(u, v),  g = beta  - u^2 v,

with zero-flux boundaries is discretized with linear triangular elements in
Cartesian coordinates (the initial data are Cartesian; the polar form of the
operator is the same thing on the interior). Zero flux is natural: no
boundary terms appear in the weak form.

Diffusion is always implicit (backward Euler, by LU factors of its constant
matrices computed once per run, or inside the implicit Newton system); nodal
kinetics (group finite elements) take one of three RunConfig.kinetics forms:

    "explicit"  - kinetics frozen at the old state:
                  (M + dt K) u+   = M u + dt gamma M f(u, v),
                  (M + dt d K) v+ = M v + dt gamma M g(u, v).
                  Cheapest, but the nodal v update is only stable while
                  dt gamma u^2 < 2; the headline parameter sets violate
                  that during transients and the run blows up.
    "split"     - Strang splitting: half-interval nodal kinetics by RK4
                  substeps, implicit diffusion, half-interval kinetics.
                  The substep count adapts to the local kinetics rate, so
                  stiff reaction episodes (relaxation oscillations) are
                  integrated accurately. Default.
    "implicit"  - fully implicit backward Euler solved by a chord Newton
                  iteration (the Jacobian factorization is reused across
                  steps and refreshed on slow convergence). Strong damping:
                  steady attractors are found even at coarse dt, but
                  genuine temporal oscillations are flattened; use for
                  pattern-formation runs, not for limit-cycle studies.

An optional lumped-mass variant replaces M by the diagonal of row sums,
which makes the diffusion step an M-matrix solve on a Delaunay mesh
(discrete maximum principle).

The convergence monitor is the mass-weighted time-derivative norm
sqrt(delta^T M delta)/dt per species; runs stop when both species' rates
fall below the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import bmat, coo_matrix, csr_matrix, diags
# cg is not called here; bench/tracing.py still wraps fem.cg
from scipy.sparse.linalg import cg, splu  # noqa: F401

from .geometry import TriMesh, triangle_areas
from .stability import KineticParams, reaction_terms, steady_state


class FemError(RuntimeError):
    """Assembly or time-integration failure."""


@dataclass(frozen=True)
class FemOperators:
    """Assembled P1 operators on one mesh."""

    mass: csr_matrix
    stiffness: csr_matrix
    lumped: np.ndarray


def assemble(mesh: TriMesh) -> FemOperators:
    """Assemble consistent mass and stiffness matrices.

    Element mass is area/12 * [[2,1,1],[1,2,1],[1,1,2]]; element stiffness
    entries are (b_i b_j + c_i c_j)/(4 area) with b, c the gradients of the
    barycentric coordinates. A triangle with area below 1e-14 aborts.
    """
    pts = mesh.vertices
    tri = mesh.triangles
    n = len(pts)
    areas = triangle_areas(pts, tri)
    if np.any(areas < 1e-14):
        worst = int(np.argmin(areas))
        raise FemError(f"degenerate triangle {worst} with area {areas[worst]:.3e}")

    x = pts[tri, 0]
    y = pts[tri, 1]
    # b_i = y_j - y_k, c_i = x_k - x_j (cyclic)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    Ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * areas)[:, None, None]
    Me = (areas / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = coo_matrix((Me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    lumped = np.asarray(M.sum(axis=1)).ravel()
    lumped.setflags(write=False)
    return FemOperators(M, K, lumped)


@dataclass
class FemState:
    """Nodal values of both species at one time."""

    u: np.ndarray
    v: np.ndarray
    t: float
    step: int = 0

    def __post_init__(self):
        if len(self.u) != len(self.v):
            raise FemError(f"u and v lengths differ: {len(self.u)} vs {len(self.v)}")


def initial_conditions(params: KineticParams, mesh: TriMesh) -> FemState:
    """Nodal interpolation of the perturbed steady state.

    u0 = u_s + 0.0016 cos(2 pi (x+y)) + 0.01 sum_{i=1..8} cos(i pi x),
    v0 = v_s + the same perturbation.
    """
    ss = steady_state(params)
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    bump = 0.0016 * np.cos(2.0 * np.pi * (x + y))
    for i in range(1, 9):
        bump = bump + 0.01 * np.cos(i * np.pi * x)
    return FemState(ss.u_s + bump, ss.v_s + bump, 0.0, 0)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs."""

    params: KineticParams
    mesh: TriMesh
    dt: float
    t_end: float
    threshold: float = 5e-4
    snapshot_times: tuple = ()
    lumped: bool = False
    kinetics: str = "split"

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise FemError(f"dt must be positive, got {self.dt}")
        if self.threshold < 0.0:
            raise FemError(f"threshold must be non-negative, got {self.threshold}")
        if not (self.t_end > 0.0):
            raise FemError(f"t_end must be positive, got {self.t_end}")
        if not (0.5 < self.t_end / self.dt < np.inf):
            raise FemError(f"t_end/dt = {self.t_end / self.dt:g} rounds to no finite step count >= 1")
        if self.kinetics not in ("split", "implicit", "explicit"):
            raise FemError(
                f"kinetics must be 'split', 'implicit' or 'explicit', got {self.kinetics!r}")


def _mass(ops: FemOperators, lumped: bool):
    """The consistent mass matrix, or its row-sum diagonal with lumped=True."""
    return diags(ops.lumped).tocsr() if lumped else ops.mass


def _backward_euler(lu, M, values: np.ndarray, where: str) -> np.ndarray:
    """Solve (M + dt c K) w = M values, given lu, the LU factors of M + dt c K."""
    b = M @ values
    if not np.all(np.isfinite(b)):
        raise FemError(f"non-finite right-hand side {where}")
    return lu.solve(b)


def diffusion_step(ops: FemOperators, values: np.ndarray, dt: float,
                   coefficient: float = 1.0, lumped: bool = False) -> np.ndarray:
    """One implicit diffusion step (M + dt c K) w = M values, no kinetics.

    With lumped=True the diagonal row-sum mass replaces M on both sides;
    on a Delaunay mesh that system is an M-matrix and the discrete maximum
    principle holds (new extremes never exceed old ones). Solved directly,
    by the same LU solve as the split and explicit time steps.
    """
    M = _mass(ops, lumped)
    A = M + dt * coefficient * ops.stiffness
    return _backward_euler(splu(A.tocsc()), M, values, "in diffusion step")


class _Stepper:
    """Caches per-run matrices and factorizations across steps.

    All three kinetics treatments share the implicit-diffusion systems
    A_u = M + dt K and A_v = M + dt d K, which "split" and "explicit"
    LU-factor once, here.  The uniform steady state stays a fixed point:
    the nodal kinetics vanish there and A 1 = M 1 (K 1 = 0), so the LU
    solve returns it up to round-off (criterion 8 bounds the drift).

    "split" integrates the nodal ODE w' = gamma F(w) over each half
    interval with classical RK4, subdividing so that the local rate bound
    (a bound on the spectral radius of gamma dF) times the substep stays
    near 0.5, well inside the RK4 stability region.  Relaxation spikes at
    gamma ~ 7e2 are resolved by a few dozen substeps on the worst steps.

    "implicit" solves the full backward-Euler system with a chord Newton
    iteration: the block Jacobian is LU-factorized once and reused until
    convergence degrades (residual growing against the previous iterate,
    or too many iterations on a stale factorization), then refreshed at
    the current iterate.  The iteration is non-monotone by design; it is
    declared failed only after the refactorization budget is spent.
    """

    _NEWTON_MAXITER = 40
    _NEWTON_MAXFACTOR = 4
    _MAX_SUBSTEPS = 100000

    def __init__(self, ops: FemOperators, config: RunConfig):
        self.ops = ops
        self.config = config
        dt, d = config.dt, config.params.d
        self.M = M = _mass(ops, config.lumped)
        self.A_u = (M + dt * ops.stiffness).tocsr()
        self.A_v = (M + dt * d * ops.stiffness).tocsr()
        if config.kinetics != "implicit":
            self._lu_u, self._lu_v = splu(self.A_u.tocsc()), splu(self.A_v.tocsc())
        self._lu = None
        self._lu_age = 0

    def step(self, state: FemState) -> FemState:
        kin = self.config.kinetics
        if kin == "explicit":
            return self._step_explicit(state)
        if kin == "split":
            return self._step_split(state)
        return self._step_implicit(state)

    def _diffuse(self, u, v, step):
        """Solve A_u u+ = M u and A_v v+ = M v with the cached factors."""
        where = f"at step {step}"
        return (_backward_euler(self._lu_u, self.M, u, where),
                _backward_euler(self._lu_v, self.M, v, where))

    # -- explicit reaction, implicit diffusion ------------------------------

    def _step_explicit(self, state: FemState) -> FemState:
        cfg = self.config
        dt, gamma = cfg.dt, cfg.params.gamma
        f, g = reaction_terms(cfg.params, state.u, state.v)
        u, v = self._diffuse(state.u + dt * gamma * f, state.v + dt * gamma * g, state.step)
        return FemState(u, v, state.t + dt, state.step + 1)

    # -- Strang splitting ----------------------------------------------------

    def _kinetics_interval(self, u, v, span, step):
        """Integrate the nodal kinetics ODE over span with adaptive RK4."""
        p = self.config.params
        gamma = p.gamma
        rate = np.maximum(np.abs(2.0 * u * v - 1.0) + u * u,
                          2.0 * np.abs(u * v) + u * u)
        m = int(np.ceil(span * gamma * max(float(rate.max()), 1.0) / 0.5))
        m = max(m, 1)
        if m > self._MAX_SUBSTEPS:
            raise FemError(f"kinetics substep count {m} at step {step}; state diverging")
        h = span / m
        for _ in range(m):
            f1, g1 = reaction_terms(p, u, v)
            u2 = u + 0.5 * h * gamma * f1
            v2 = v + 0.5 * h * gamma * g1
            f2, g2 = reaction_terms(p, u2, v2)
            u3 = u + 0.5 * h * gamma * f2
            v3 = v + 0.5 * h * gamma * g2
            f3, g3 = reaction_terms(p, u3, v3)
            u4 = u + h * gamma * f3
            v4 = v + h * gamma * g3
            f4, g4 = reaction_terms(p, u4, v4)
            u = u + (h / 6.0) * gamma * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            v = v + (h / 6.0) * gamma * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        return u, v

    def _step_split(self, state: FemState) -> FemState:
        dt = self.config.dt
        u, v = self._kinetics_interval(state.u, state.v, 0.5 * dt, state.step)
        u, v = self._diffuse(u, v, state.step)
        u, v = self._kinetics_interval(u, v, 0.5 * dt, state.step)
        return FemState(u, v, state.t + dt, state.step + 1)

    # -- backward Euler with chord Newton ------------------------------------

    def _factorize(self, u, v):
        a = self.config.dt * self.config.params.gamma
        M = self.M
        fu = M @ diags(2.0 * u * v - 1.0)
        fv = M @ diags(u * u)
        gu = M @ diags(-2.0 * u * v)
        J = bmat([[self.A_u - a * fu, -a * fv],
                  [-a * gu, self.A_v + a * fv]], format="csc")
        self._lu = splu(J)
        self._lu_age = 0

    def _step_implicit(self, state: FemState) -> FemState:
        cfg = self.config
        dt, gamma = cfg.dt, cfg.params.gamma
        bu = self.M @ state.u
        bv = self.M @ state.v
        tol = 1e-11 * max(1.0, float(np.abs(bu).max()), float(np.abs(bv).max()))
        u, v = state.u.copy(), state.v.copy()
        if self._lu is None:
            self._factorize(u, v)
        factorizations = 0
        res_prev = np.inf
        best = None
        for _ in range(self._NEWTON_MAXITER):
            f, g = reaction_terms(cfg.params, u, v)
            Fu = self.A_u @ u - bu - dt * gamma * (self.M @ f)
            Fv = self.A_v @ v - bv - dt * gamma * (self.M @ g)
            res = max(float(np.abs(Fu).max()), float(np.abs(Fv).max()))
            if not np.isfinite(res):
                if best is None:
                    raise FemError(f"Newton residual non-finite at step {state.step}")
                u, v = best[0], best[1]
                self._factorize(u, v)
                factorizations += 1
                if factorizations > self._NEWTON_MAXFACTOR:
                    raise FemError(f"Newton stalled at step {state.step}")
                res_prev = np.inf
                continue
            if res < tol:
                return FemState(u, v, state.t + dt, state.step + 1)
            if best is None or res < best[2]:
                best = (u.copy(), v.copy(), res)
            stale = self._lu_age > 6
            diverging = res > 4.0 * res_prev
            if stale or diverging:
                self._factorize(u, v)
                factorizations += 1
                if factorizations > self._NEWTON_MAXFACTOR:
                    raise FemError(
                        f"Newton not converging at step {state.step} (residual {res:.3e})")
            delta = self._lu.solve(np.concatenate([Fu, Fv]))
            n = len(u)
            u = u - delta[:n]
            v = v - delta[n:]
            self._lu_age += 1
            res_prev = res
        raise FemError(
            f"Newton failed to reach {tol:.3e} in {self._NEWTON_MAXITER} "
            f"iterations at step {state.step}")


def step_imex(state: FemState, ops: FemOperators, config: RunConfig) -> FemState:
    """Advance one IMEX step (implicit diffusion, nodal kinetics).

    config.kinetics picks the reaction treatment; see _Stepper. Each call
    builds a fresh _Stepper, so split and explicit kinetics LU-factor A_u
    and A_v on every call, which costs far more than the step itself. To
    advance many steps, use simulate, which factors once per run.
    """
    return _Stepper(ops, config).step(state)


def l2_time_derivative(prev: FemState, next_state: FemState, dt: float,
                       ops: FemOperators) -> tuple[float, float]:
    """Mass-weighted time-derivative norms sqrt(delta^T M delta)/dt."""
    if not (dt > 0.0):
        raise FemError(f"dt must be positive, got {dt}")
    du = next_state.u - prev.u
    dv = next_state.v - prev.v
    rate_u = float(np.sqrt(du @ (ops.mass @ du))) / dt
    rate_v = float(np.sqrt(dv @ (ops.mass @ dv))) / dt
    return rate_u, rate_v


@dataclass
class RunRecord:
    """Everything a simulation produced."""

    config: RunConfig
    snapshots: list = field(default_factory=list)  # (t, FemState) pairs
    monitor: np.ndarray = None  # columns t, rate_u, rate_v
    termination: str = ""
    final: FemState = None


def simulate(config: RunConfig, ops: FemOperators | None = None) -> RunRecord:
    """Integrate from the perturbed steady state until t_end or convergence.

    Stops early once both species' time-derivative rates fall below the
    threshold ('threshold'), otherwise runs to t_end ('t_end'). A blow-up
    aborts with the offending step in the error. Snapshot times are
    honored at the first step reaching each requested time.
    """
    if ops is None:
        ops = assemble(config.mesh)
    stepper = _Stepper(ops, config)
    state = initial_conditions(config.params, config.mesh)
    record = RunRecord(config)

    pending = sorted(config.snapshot_times)
    monitor = []
    n_steps = int(round(config.t_end / config.dt))
    termination = "t_end"
    # a blow-up's overflow is reported by the non-finite rate check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            new_state = stepper.step(state)
            rate_u, rate_v = l2_time_derivative(state, new_state, config.dt, ops)
            if not np.isfinite(rate_u + rate_v):
                raise FemError(f"non-finite state or rate at step {new_state.step} (t={new_state.t:.6f})")
            monitor.append((new_state.t, rate_u, rate_v))
            state = new_state
            while pending and state.t >= pending[0] - 1e-12:
                record.snapshots.append((pending.pop(0), FemState(state.u.copy(), state.v.copy(), state.t, state.step)))
            if rate_u < config.threshold and rate_v < config.threshold:
                termination = "threshold"
                break

    record.monitor = np.array(monitor).reshape(-1, 3)
    record.termination = termination
    record.final = state
    return record


def monitor_peaks(record: RunRecord, species: str = "u", start_time: float = 2.0,
                  min_separation: float = 0.5, min_height: float = 5e-4) -> np.ndarray:
    """Times of separated local maxima of the monitor after the transient.

    Peaks before start_time (the initial instability transient) are ignored,
    peaks closer together than min_separation or lower than min_height do
    not count. Used to distinguish recurrent temporal instability episodes
    from a single decaying transient.
    """
    from scipy.signal import find_peaks

    col = {"u": 1, "v": 2}[species]
    t = record.monitor[:, 0]
    y = record.monitor[:, col]
    keep = t >= start_time
    if not keep.any():
        return np.empty(0)
    t, y = t[keep], y[keep]
    dt = record.config.dt
    idx, _ = find_peaks(y, height=min_height, distance=max(1, int(round(min_separation / dt))))
    return t[idx]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_snapshot(mesh: TriMesh, state: FemState, path) -> None:
    """Per-vertex `x y u v` text file."""
    from ._util import fmt, write_text

    lines = [f"# t={fmt(state.t)} step={state.step}\n"]
    for (x, y), u, v in zip(mesh.vertices, state.u, state.v):
        lines.append(f"{fmt(x)} {fmt(y)} {fmt(u)} {fmt(v)}\n")
    write_text(path, "".join(lines))


def export_monitor(record: RunRecord, path) -> None:
    """Monitor CSV `t,rate_u,rate_v`, one row per step."""
    from ._util import fmt, write_text

    lines = ["t,rate_u,rate_v\n"]
    for t, ru, rv in record.monitor:
        lines.append(f"{fmt(t)},{fmt(ru)},{fmt(rv)}\n")
    write_text(path, "".join(lines))
