"""P1 finite element solver for the reaction-diffusion system on the annulus.

The system

    du/dt = lap(u) + gamma f(u, v),    f = alpha - u + u^2 v,
    dv/dt = d lap(v) + gamma g(u, v),  g = beta  - u^2 v,

with zero-flux boundaries is discretized with linear triangular elements in
Cartesian coordinates (the initial data are Cartesian; the polar form of the
operator is the same thing on the interior). Zero flux is natural: no
boundary terms appear in the weak form.

Diffusion is always implicit (backward Euler, by one banded Cholesky factor
of its constant matrices computed once per run, or inside the implicit
Newton system); nodal kinetics (group finite elements) take one of two
RunConfig.kinetics forms:

    "split"     - Strang splitting: half-interval nodal kinetics by RK4
                  substeps, implicit diffusion, half-interval kinetics.
                  The substep count adapts to the local kinetics rate, so
                  stiff reaction episodes (relaxation oscillations) are
                  integrated accurately. Default.
    "implicit"  - fully implicit backward Euler solved by a chord Newton
                  iteration. Each step starts from the quadratic
                  extrapolation 3 u^n - 3 u^(n-1) + u^(n-2) (linear on the
                  second step, u^n on the first) and applies at least one
                  correction; the LU-factored Jacobian is reused across
                  steps and refreshed, by one sparse product, when a
                  correction contracts the residual less than tenfold or
                  has been used six times in one step. Strong damping:
                  steady attractors are found even at coarse dt, but
                  genuine temporal oscillations are flattened; use for
                  pattern-formation runs, not for limit-cycle studies.

"split" stacks both species' constant diffusion matrices into one
symmetric positive definite matrix, banded in reverse Cuthill-McKee order,
and makes one LAPACK Cholesky factorization of it per run and one banded
solve per step. "implicit" keeps A2 = diag(M + dt K, M + dt d K) and its
residual operator [A2, -M2], M2 = diag(M, M), the only operators that
depend on dt, and forms each Jacobian A2 - dt gamma M2 dF by one sparse
product. Its LU factors are ordered in SuperLU's symmetric mode (minimum
degree on A + A^T, diagonal pivots preferred).

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
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import block_diag, coo_matrix, csr_matrix, diags, hstack
# cg is not called here; bench/tracing.py still wraps fem.cg
from scipy.sparse.linalg import cg, splu  # noqa: F401

from ._util import SIZE_LIMIT
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
        if n > SIZE_LIMIT:
            raise FemInputError(f"t_end/dt = {n:,} steps exceeds the limit {SIZE_LIMIT:,}")
        if not all(0.0 < t and _snapshot_step(t, self.dt) <= n for t in self.snapshot_times):
            raise FemInputError(f"snapshot times must lie in (0, n dt = {n * self.dt:g}], "
                                f"the end of the run's n = {n} steps, got {self.snapshot_times}")
        if self.kinetics not in ("split", "implicit"):
            raise FemInputError(f"kinetics must be 'split' or 'implicit', got {self.kinetics!r}")


def _splu(A):
    """LU-factor the implicit Jacobian, CSC, with the one ordering every refresh uses.

    SuperLU's symmetric mode: minimum degree on A + A^T, diagonal pivots
    preferred. The Jacobian is structurally symmetric (each block carries
    the mesh graph); on the desk mesh this fills 28% less than COLAMD.
    diag_pivot_thresh stays at its default 1.0: the pivots of stiff states
    (large dt gamma u^2) are not safe to take from the diagonal.
    """
    return splu(A, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))


def _banded_cholesky(graph, A2):
    """Cholesky-factor A2 = diag(A_u, A_v) as one LAPACK band, in reverse Cuthill-McKee order.

    Both blocks carry the mesh graph (the pattern of graph), so one RCM
    order of it, stacked as [order; order + n], makes the whole matrix
    banded: bandwidth 75 on the reference mesh, 38 on the desk mesh (George
    & Liu, Computer Solution of Large Sparse Positive Definite Systems,
    1981). The upper band of the permuted matrix is written straight into a
    Fortran-ordered (bw + 1, 2n) array, which dpbtrf factors in place with
    no copy. Returns the stacked order and the factor; a matrix that is not
    positive definite raises FemError.
    """
    # imported here: csgraph keeps about 1 MB resident, and only "split" uses it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = graph.shape[0]
    order = reverse_cuthill_mckee(graph, symmetric_mode=True)
    order = np.concatenate([order, order + n])
    position = np.empty_like(order)
    position[order] = np.arange(2 * n)
    a = A2.tocoo()
    rows, cols = position[a.row], position[a.col]
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    bw = int((cols - rows).max())
    band = np.zeros((bw + 1, 2 * n), order="F")
    band[bw + rows - cols, cols] = a.data[upper]
    chol, info = dpbtrf(band, overwrite_ab=True)
    if info != 0:
        raise FemError(f"diffusion matrix is not positive definite (dpbtrf info {info})")
    return order, chol


class _Stepper:
    """Caches per-run matrices and factorizations across steps.

    Both kinetics treatments work on the stacked state w = [u; v], with
    F(w) = [f; g] the nodal reaction terms and M2 = diag(M, M), and share
    the implicit-diffusion system A2 = diag(A_u, A_v), A_u = M + dt K and
    A_v = M + dt d K, built once per run.
    The uniform steady state stays a fixed point: the nodal kinetics
    vanish there and A 1 = M 1 (K 1 = 0), so the diffusion solve returns
    it up to round-off (criterion 8 bounds the drift).

    "split" Cholesky-factors A2 once, here, as one LAPACK band
    in reverse Cuthill-McKee order (_banded_cholesky), and keeps M2 with
    its rows in that order, so that each diffusion solve is one sparse
    product, one banded solve (dpbtrs) for both species and one scatter
    back to mesh order.  It integrates the nodal ODE w' = gamma F(w) over
    each half interval with classical RK4, subdividing so that the local
    rate bound (a bound on the spectral radius of gamma dF, the larger
    absolute row sum of dF) times the substep stays near 0.5, well inside
    the RK4 stability region.
    Relaxation spikes at gamma ~ 7e2 are resolved by a few dozen substeps
    on the worst steps.  Its four stages, the stage argument and the
    weighted stage sum live in six buffers allocated once per run; each
    interval copies its starting state once and then updates it in place,
    with the operations and their order of the allocating RK4 formula, so
    the results are bit-identical to it.  kinetics_substeps counts the RK4
    substeps of the run.

    "implicit" solves the full backward-Euler system with a chord Newton
    iteration: its residual A2 w - M2 (w^n + dt gamma F(w)) is one product
    of [A2, -M2] with a buffer allocated once per run.  Each refresh forms
    the block Jacobian A2 - dt gamma M2 dF by one sparse product, with dF
    the three diagonals of the nodal derivatives; A2 and [A2, -M2] are the
    only operators it keeps that depend on dt.
    It is LU-factorized (_splu) at the first step and reused across steps while
    the iteration contracts (the simplified Newton rule of Hairer &
    Wanner, Solving ODEs II, IV.8): it is refreshed at the current iterate
    when the contraction rate theta = res / res_prev of the last correction
    exceeds _NEWTON_THETA_MAX, or when the factor has made _NEWTON_MAXUSES
    corrections in one step, so that a stiff step does not crawl.  The
    residual is divided by the lumped mass, which makes it a nodal rate in
    the units of w, so the convergence test
    max|R_i / m_i| < _NEWTON_RTOL max(1, max|w^n|) leaves about the same
    relative error in the state on every mesh.  A step that directly
    follows two consecutive steps starts from the quadratic extrapolation
    3 w^n - 3 w^(n-1) + w^(n-2), one that follows a single step from the
    linear 2 w^n - w^(n-1), any other from w^n, as does a step whose
    extrapolated residual is not finite.  Every step applies at least one
    correction, even when its start already meets the tolerance, so the
    extrapolation error never reaches the state.  The iteration is
    non-monotone by design; it is declared failed only after the
    refactorization budget is spent.  That budget bounds a step to 36
    residual evaluations: at most 5 factors (the one it starts with and
    _NEWTON_MAXFACTOR refreshes) times _NEWTON_MAXUSES corrections, at most
    4 restarts from the best iterate after a non-finite residual, 1 restart
    from an overshot extrapolation and 1 final evaluation.
    factorizations and lu_solves count factorizations and solves with
    them: for "split" one banded factorization per run and one solve per
    step, for "implicit" its splu calls and chord corrections.
    """

    _NEWTON_MAXFACTOR = 4
    # chosen by measurement (CHANGES.md): the rtol keeps each step within
    # 3.1e-9 of full Newton on the coarse test mesh; theta and the use cap
    # take the pattern-implicit run from 77 factorizations to 17
    _NEWTON_RTOL = 5e-10
    _NEWTON_THETA_MAX = 0.1
    _NEWTON_MAXUSES = 6
    _MAX_SUBSTEPS = 100000

    def __init__(self, ops: FemOperators, config: RunConfig):
        self.config = config
        dt, d = config.dt, config.params.d
        M = diags(ops.lumped).tocsr() if config.lumped else ops.mass
        A2 = block_diag((M + dt * ops.stiffness, M + dt * d * ops.stiffness), format="csr")
        self.M2 = block_diag((M, M), format="csr")
        self.factorizations = 0  # factorizations and solves over the run
        self.lu_solves = 0
        self.kinetics_substeps = 0  # RK4 substeps over the run
        n2 = 2 * M.shape[0]
        if config.kinetics == "implicit":
            self._A2 = A2
            # the residual is [A2, -M2] [w; w^n + dt gamma F(w)], one product
            self._residual_op = hstack([A2, -self.M2], format="csr")
            self._residual_arg = np.empty(2 * n2)
            self._scaled = np.empty(n2)  # |R| over the lumped mass
            # the residual over the lumped mass is a nodal rate, like w itself
            self._inv_mass = 1.0 / np.concatenate([ops.lumped, ops.lumped])
        else:
            self._order, self._chol = _banded_cholesky(ops.stiffness, A2)
            self._M2_rows = self.M2[self._order]  # M2 w in the band's order, one product
            self.factorizations = 1
            # RK4 stages k1-k4, the stage argument and the weighted stage sum
            self._rk4 = tuple(np.empty(n2) for _ in range(6))
        self._lu = None
        # (step, stacked start state) of the last implicit steps, latest
        # first: at most two, of consecutive steps
        self._prev = ()

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
        """Solve A_u u+ = M u and A_v v+ = M v, w = [u; v], with the cached factor."""
        b = self._M2_rows @ w
        if not np.all(np.isfinite(b)):
            raise FemError(f"non-finite right-hand side at step {step}")
        x, _ = dpbtrs(self._chol, b, overwrite_b=True)
        self.lu_solves += 1
        out = np.empty_like(b)
        out[self._order] = x
        return out

    # -- Strang splitting ----------------------------------------------------

    def _kinetics_interval(self, w, span, step):
        """Integrate the nodal kinetics ODE over span with adaptive RK4.

        Returns a new array; w is left unchanged.
        """
        gamma = self.config.params.gamma
        n = len(w) // 2
        u, v = w[:n], w[n:]
        # the larger absolute row sum of dF, max(|2uv - 1|, |-2uv|) + |u^2|:
        # rounding is monotone, so this equals the maximum of the two sums
        uv2 = 2.0 * u * v
        rate = np.maximum(np.abs(uv2 - 1.0), np.abs(uv2)) + u * u
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
        """LU-factor the Jacobian A2 - dt gamma M2 dF at the stacked state w."""
        n = len(w) // 2
        a = self.config.dt * self.config.params.gamma
        f_u, f_v, g_u, g_v = reaction_jacobian(w[:n], w[n:])
        dF = diags([np.concatenate([f_u, g_v]), f_v, g_u], [0, n, -n])
        self._lu = _splu((self._A2 - a * (self.M2 @ dF)).tocsc())
        self.factorizations += 1

    def _residual(self, w, w_old, a):
        """The residual A2 w - M2 (w^n + a F(w)) and its largest |R_i / m_i|."""
        x = self._residual_arg
        n2 = len(w)
        x[:n2] = w
        z = self._F(w, x[n2:])
        z *= a
        z += w_old
        R = self._residual_op @ x
        np.multiply(R, self._inv_mass, out=self._scaled)
        return R, float(np.abs(self._scaled, out=self._scaled).max())

    def _backward_euler(self, w_old, state: FemState):
        """Advance w_old = [u; v], the stacked state, by one backward-Euler step."""
        cfg = self.config
        a = cfg.dt * cfg.params.gamma
        tol = self._NEWTON_RTOL * max(1.0, float(np.abs(w_old).max()))
        prev, self._prev = self._prev, ()
        if prev and prev[0][0] + 1 != state.step:
            prev = ()
        predicted = bool(prev)
        # w is rebound, never written in place, so w_old, the history and
        # best need no copy
        if len(prev) == 2:
            w = 3.0 * (w_old - prev[0][1]) + prev[1][1]
        elif prev:
            w = 2.0 * w_old - prev[0][1]
        else:
            w = w_old
        if self._lu is None:
            self._factorize(w)
        refreshes = 0
        uses = 0  # chord iterations on the current factor in this step
        corrections = 0
        res_prev = np.inf
        best = None
        while True:  # the refresh budget ends it; see the class docstring
            R, res = self._residual(w, w_old, a)
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
                self._prev = ((state.step, w_old),) + prev[:1]
                return w
            if best is None or res < best[1]:
                best = (w, res)
            if uses >= self._NEWTON_MAXUSES or res > self._NEWTON_THETA_MAX * res_prev:
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
    factorizations: int = 0  # banded Cholesky (split, 1 a run) or Jacobian LU (implicit)
    lu_solves: int = 0  # solves with those factors: 1 a step (split), 1 a correction
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
