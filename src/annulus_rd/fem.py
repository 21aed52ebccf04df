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
kinetics (group finite elements) take one of two RunConfig.kinetics forms:

    "split"     - Strang splitting: half-interval nodal kinetics by RK4
                  substeps, implicit diffusion, half-interval kinetics.
                  The substep count adapts to the local kinetics rate, so
                  stiff reaction episodes (relaxation oscillations) are
                  integrated accurately. Default.
    "implicit"  - fully implicit backward Euler solved by a chord Newton
                  iteration. Each step starts from the linear extrapolation
                  2 u^n - u^(n-1) and applies at least one correction; the
                  LU-factored Jacobian is reused across steps and refreshed
                  only when three corrections in one step have not
                  converged or the residual grows fourfold. Strong damping:
                  steady attractors are found even at coarse dt, but
                  genuine temporal oscillations are flattened; use for
                  pattern-formation runs, not for limit-cycle studies.
                  It factors its Jacobian in SuperLU's symmetric mode
                  (minimum degree on J + J^T, diagonal pivots preferred);
                  the diffusion factors of "split" keep COLAMD.

Both work on one stacked state w = [u; v]. Kinetics frozen at the old state
(forward Euler) is not offered: with the stiff activator kinetics it is
stable only while dt gamma u^2 < 2, which the headline parameter sets
violate during transients.

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
from scipy.sparse import block_diag, bmat, coo_matrix, csr_matrix, diags
# cg is not called here; bench/tracing.py still wraps fem.cg
from scipy.sparse.linalg import cg, splu  # noqa: F401

from .geometry import TriMesh, triangle_areas
from .stability import KineticParams, reaction_jacobian, reaction_terms, steady_state


class FemError(RuntimeError):
    """Assembly or time-integration failure."""


class FemInputError(FemError, ValueError):
    """An argument the solver refuses; a ValueError, unlike a failed run."""


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
            raise FemInputError(f"u and v lengths differ: {len(self.u)} vs {len(self.v)}")


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


# A snapshot at time t is taken after step ceil(t/dt), the first whose time
# n dt reaches t. The relative slack keeps a t meant as a whole number of
# steps from moving one step later when t/dt rounds up (0.05/1e-3 is
# 50.00000000000001); counting steps, not summing dt, keeps long runs exact.
_SNAPSHOT_SLACK = 1e-9


def _snapshot_step(t: float, dt: float) -> float:
    """Index of the step a snapshot at time t is taken after (inf for t = inf)."""
    return np.ceil(t / dt * (1.0 - _SNAPSHOT_SLACK))


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
            raise FemInputError(f"dt must be positive, got {self.dt}")
        if not (self.threshold >= 0.0):
            raise FemInputError(f"threshold must be non-negative, got {self.threshold}")
        if not (self.t_end > 0.0):
            raise FemInputError(f"t_end must be positive, got {self.t_end}")
        if not (0.5 < self.t_end / self.dt < np.inf):
            raise FemInputError(f"t_end/dt = {self.t_end / self.dt:g} rounds to no finite step count >= 1")
        # the run ends after n = round(t_end/dt) steps: a later time is never
        # reached, an earlier one than t = 0 would be taken at step 1
        n = round(self.t_end / self.dt)
        if not all(0.0 < t and _snapshot_step(t, self.dt) <= n for t in self.snapshot_times):
            raise FemInputError(f"snapshot times must lie in (0, n dt = {n * self.dt:g}], "
                                f"the end of the run's n = {n} steps, got {self.snapshot_times}")
        if self.kinetics not in ("split", "implicit"):
            raise FemInputError(f"kinetics must be 'split' or 'implicit', got {self.kinetics!r}")


class _Stepper:
    """Caches per-run matrices and factorizations across steps.

    Both kinetics treatments work on the stacked state w = [u; v], with
    F(w) = [f; g] the nodal reaction terms and M2 = diag(M, M), and share
    the implicit-diffusion systems A_u = M + dt K and A_v = M + dt d K,
    which "split" LU-factors once, here.  The uniform steady state stays a
    fixed point: the nodal kinetics vanish there and A 1 = M 1 (K 1 = 0),
    so the LU solve returns it up to round-off (criterion 8 bounds the
    drift).

    "split" integrates the nodal ODE w' = gamma F(w) over each half
    interval with classical RK4, subdividing so that the local rate bound
    (a bound on the spectral radius of gamma dF) times the substep stays
    near 0.5, well inside the RK4 stability region.  Relaxation spikes at
    gamma ~ 7e2 are resolved by a few dozen substeps on the worst steps.
    Its four stages, the stage argument and the weighted stage sum live in
    six buffers allocated once per run; each interval copies its starting
    state once and then updates it in place, with the operations and their
    order of the allocating RK4 formula, so the results are bit-identical
    to it.  kinetics_substeps counts the RK4 substeps of the run.

    "implicit" solves the full backward-Euler system with a chord Newton
    iteration, with A2 = diag(A_u, A_v) built once per run: its residual
    is A2 w - M2 w^n - dt gamma M2 F(w).  The block Jacobian
    A2 - dt gamma M2 dF is structurally symmetric (each block carries the
    mesh graph), so splu orders it in symmetric mode (MMD on J + J^T),
    which on the desk mesh fills 28% less than COLAMD; partial pivoting
    keeps its default threshold.  It is LU-factorized at the first step and
    reused across steps for as long as it converges: it is refreshed at
    the current iterate only when it has made three corrections in one
    step without reaching the tolerance, or when the residual grows
    fourfold against the previous iterate.  A step that directly follows
    the previous one starts from the extrapolation 2 u^n - u^(n-1), any
    other from u^n, as does a step whose extrapolated residual is not
    finite.  Every step applies at least one correction, even when its
    start already meets the tolerance, so the extrapolation error never
    reaches the state.  The iteration is non-monotone by design; it is
    declared failed only after the refactorization budget is spent.  Its
    residual's reaction terms are written into one buffer allocated per run.
    factorizations and lu_solves count splu calls and factor solves.
    """

    _NEWTON_MAXITER = 40
    _NEWTON_MAXFACTOR = 4
    _MAX_SUBSTEPS = 100000

    def __init__(self, ops: FemOperators, config: RunConfig):
        self.config = config
        dt, d = config.dt, config.params.d
        self.M = M = diags(ops.lumped).tocsr() if config.lumped else ops.mass
        self.A_u = (M + dt * ops.stiffness).tocsr()
        self.A_v = (M + dt * d * ops.stiffness).tocsr()
        self.M2 = block_diag((M, M), format="csr")
        self.factorizations = 0  # splu calls and factor solves over the run
        self.lu_solves = 0
        self.kinetics_substeps = 0  # RK4 substeps over the run
        n2 = 2 * M.shape[0]
        if config.kinetics == "implicit":
            self.A2 = block_diag((self.A_u, self.A_v), format="csr")
            self._f = np.empty(n2)  # [f; g] of the Newton residual
        else:
            self._lu_u, self._lu_v = splu(self.A_u.tocsc()), splu(self.A_v.tocsc())
            self.factorizations = 2
            # RK4 stages k1-k4, the stage argument and the weighted stage sum
            self._rk4 = tuple(np.empty(n2) for _ in range(6))
        self._lu = None
        self._prev = None  # the state the last implicit step started from

    def step(self, state: FemState) -> FemState:
        """Advance one step with the configured kinetics treatment."""
        dt = self.config.dt
        w = np.concatenate([state.u, state.v])
        if self.config.kinetics == "implicit":
            w = self._backward_euler(w, state)
        else:
            w = self._kinetics_interval(w, 0.5 * dt, state.step)
            w = self._diffuse(w, state.step)
            w = self._kinetics_interval(w, 0.5 * dt, state.step)
        n = len(state.u)
        return FemState(w[:n], w[n:], state.t + dt, state.step + 1)

    def _F(self, w, out):
        """Write the nodal reaction terms [f; g] at the stacked state w into out."""
        n = len(w) // 2
        reaction_terms(self.config.params, w[:n], w[n:], out=out)
        return out

    def _diffuse(self, w, step):
        """Solve A_u u+ = M u and A_v v+ = M v, w = [u; v], with the cached factors."""
        b = self.M2 @ w
        if not np.all(np.isfinite(b)):
            raise FemError(f"non-finite right-hand side at step {step}")
        n = len(w) // 2
        self.lu_solves += 2
        return np.concatenate([self._lu_u.solve(b[:n]), self._lu_v.solve(b[n:])])

    # -- Strang splitting ----------------------------------------------------

    def _kinetics_interval(self, w, span, step):
        """Integrate the nodal kinetics ODE over span with adaptive RK4.

        Returns a new array; w is left unchanged.
        """
        gamma = self.config.params.gamma
        n = len(w) // 2
        fu, fv, gu, gv = reaction_jacobian(w[:n], w[n:])
        rate = np.maximum(np.abs(fu) + np.abs(fv), np.abs(gu) + np.abs(gv))
        # compared as a float: a rate that overflowed to inf has no int count
        m = np.ceil(span * gamma * max(float(rate.max()), 1.0) / 0.5)
        if not m <= self._MAX_SUBSTEPS:
            raise FemError(f"kinetics substep count {m:.6g} at step {step}; state diverging")
        m = max(int(m), 1)
        self.kinetics_substeps += m
        h = span / m
        # the scalar factors are grouped as Python evaluates the textbook form
        # w + 0.5 * h * gamma * k1 ... w + (h / 6.0) * gamma * (k1 + 2.0 * k2 + ...)
        half, full, sixth = 0.5 * h * gamma, h * gamma, (h / 6.0) * gamma
        k1, k2, k3, k4, arg, acc = self._rk4
        w = w.copy()
        for _ in range(m):
            self._F(w, k1)
            np.multiply(half, k1, out=arg)
            np.add(w, arg, out=arg)
            self._F(arg, k2)
            np.multiply(half, k2, out=arg)
            np.add(w, arg, out=arg)
            self._F(arg, k3)
            np.multiply(full, k3, out=arg)
            np.add(w, arg, out=arg)
            self._F(arg, k4)
            np.multiply(2.0, k2, out=acc)
            np.add(k1, acc, out=acc)
            np.multiply(2.0, k3, out=arg)
            np.add(acc, arg, out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(sixth, acc, out=acc)
            np.add(w, acc, out=w)
        return w

    # -- backward Euler with chord Newton ------------------------------------

    def _factorize(self, w):
        n = len(w) // 2
        a = self.config.dt * self.config.params.gamma
        fu, fv, gu, gv = reaction_jacobian(w[:n], w[n:])
        D = bmat([[diags(fu), diags(fv)], [diags(gu), diags(gv)]])
        J = (self.A2 - a * (self.M2 @ D)).tocsc()
        # diag_pivot_thresh stays at its default 1.0: the pivots of stiff
        # states (large dt gamma u^2) are not safe to take from the diagonal
        self._lu = splu(J, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        self.factorizations += 1

    def _backward_euler(self, w_old, state: FemState):
        """Advance w_old = [u; v], the stacked state, by one backward-Euler step."""
        cfg = self.config
        dt, gamma = cfg.dt, cfg.params.gamma
        b = self.M2 @ w_old
        tol = 1e-11 * max(1.0, float(np.abs(b).max()))
        prev, self._prev = self._prev, None
        predicted = prev is not None and prev.step + 1 == state.step
        # w is rebound, never written in place, so w_old and best need no copy
        w = 2.0 * w_old - np.concatenate([prev.u, prev.v]) if predicted else w_old
        if self._lu is None:
            self._factorize(w)
        refreshes = 0
        uses = 0  # chord iterations on the current factor in this step
        corrections = 0
        res_prev = np.inf
        best = None
        for _ in range(self._NEWTON_MAXITER):
            R = self.A2 @ w - b - dt * gamma * (self.M2 @ self._F(w, self._f))
            res = float(np.abs(R).max())
            if not np.isfinite(res):
                if predicted and corrections == 0:
                    # the extrapolation overshot; start again from the old state
                    w = w_old
                    predicted = False
                    continue
                if best is None:
                    raise FemError(f"Newton residual non-finite at step {state.step}")
                w = best[0]
                self._factorize(w)
                refreshes += 1
                if refreshes > self._NEWTON_MAXFACTOR:
                    raise FemError(f"Newton stalled at step {state.step}")
                uses = 0
                res_prev = np.inf
                continue
            # a predicted start can meet tol by itself; accepting it without
            # a correction would leave the extrapolation error in the state
            if res < tol and corrections > 0:
                self._prev = state
                return w
            if best is None or res < best[1]:
                best = (w, res)
            if uses >= 3 or res > 4.0 * res_prev:
                self._factorize(w)
                refreshes += 1
                if refreshes > self._NEWTON_MAXFACTOR:
                    raise FemError(
                        f"Newton not converging at step {state.step} (residual {res:.3e})")
                uses = 0
            w = w - self._lu.solve(R)
            self.lu_solves += 1
            uses += 1
            corrections += 1
            res_prev = res
        raise FemError(
            f"Newton failed to reach {tol:.3e} in {self._NEWTON_MAXITER} "
            f"iterations at step {state.step}")


def l2_time_derivative(prev: FemState, next_state: FemState, dt: float,
                       ops: FemOperators) -> tuple[float, float]:
    """Mass-weighted time-derivative norms sqrt(delta^T M delta)/dt."""
    if not (dt > 0.0):
        raise FemInputError(f"dt must be positive, got {dt}")
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
    factorizations: int = 0  # sparse LU factorizations
    lu_solves: int = 0  # solves with those factors
    kinetics_substeps: int = 0  # RK4 substeps of the split kinetics (0 for implicit)


def simulate(config: RunConfig, ops: FemOperators | None = None) -> RunRecord:
    """Integrate from the perturbed steady state until t_end or convergence.

    Stops early once both species' time-derivative rates fall below the
    threshold ('threshold'), otherwise runs to t_end ('t_end'). A blow-up
    aborts with the offending step in the error. Each snapshot is taken
    after the first step n whose time n dt reaches the requested time.
    Operators assembled on a mesh of another size are refused.
    """
    n = len(config.mesh.vertices)
    if ops is None:
        ops = assemble(config.mesh)
    elif ops.mass.shape != (n, n):
        raise FemInputError(f"operators of shape {ops.mass.shape} do not fit the run's "
                            f"mesh of {n} vertices")
    stepper = _Stepper(ops, config)
    state = initial_conditions(config.params, config.mesh)
    record = RunRecord(config)

    pending = sorted((_snapshot_step(t, config.dt), t) for t in config.snapshot_times)
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
            while pending and state.step >= pending[0][0]:
                record.snapshots.append((pending.pop(0)[1], FemState(state.u.copy(), state.v.copy(), state.t, state.step)))
            if rate_u < config.threshold and rate_v < config.threshold:
                termination = "threshold"
                break

    record.monitor = np.array(monitor).reshape(-1, 3)
    record.termination = termination
    record.final = state
    record.factorizations = stepper.factorizations
    record.lu_solves = stepper.lu_solves
    record.kinetics_substeps = stepper.kinetics_substeps
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

    if species not in ("u", "v"):
        raise FemInputError(f"species must be 'u' or 'v', got {species!r}")
    col = 1 if species == "u" else 2
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
