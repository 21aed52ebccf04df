"""Linear stability of the uniform steady state of the activator-depleted model.

Kinetics: f = alpha - u + u^2 v, g = beta - u^2 v, with reaction scaling
gamma and diffusion ratio d. The uniform steady state is
(u_s, v_s) = (alpha+beta, beta/(alpha+beta)^2). Linearizing about it and
projecting on an eigenmode with eigenvalue eta^2 gives the 2x2 matrix

    [ gamma (beta-alpha)/s - eta^2      gamma s^2          ]
    [ -2 gamma beta / s                 -gamma s^2 - d eta^2 ]

with s = alpha + beta. Its trace is
T = gamma (beta - alpha - s^3)/s - (d+1) eta^2 and its determinant is
computed here in two switchable forms: `consistent` takes the second
factor's diffusion term from the matrix (d eta^2), `paper-literal`
reproduces a printed variant with (d+1) eta^2 in that slot. The two agree
exactly at eta^2 = 0 and define slightly different partitions otherwise;
both are first-class so their predictions can be compared.

Growth rates are the printed root formula sigma = (T +- sqrt(T^2-4D))/2,
so sigma1+sigma2 = T and sigma1*sigma2 = D; roots() is its one
implementation, for scalars and arrays alike.

Each thickness bound inverts the printed supremum of the eigenvalue's
thickness weighting: it is the rho at which that supremum of eta^2 reaches
a critical eigenvalue (_thickness_bound).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import make_annulus
from .spectrum import _SUPREMUM, ModeIndex, _closed_form, _eigenvalues, eigenvalue

FORMS = ("consistent", "paper-literal")


class StabilityError(ValueError):
    """Invalid kinetic parameters or classification inputs."""


@dataclass(frozen=True)
class KineticParams:
    """Kinetic constants: feed rates alpha, beta; scaling gamma; ratio d."""

    alpha: float
    beta: float
    gamma: float
    d: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "d"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise StabilityError(f"{name} must be positive and finite, got {value}")


def reaction_terms(params: KineticParams, u, v, out=None):
    """Kinetic right-hand sides (f, g) = (alpha - u + u^2 v, beta - u^2 v).

    This is the one reaction formula. With out, an array of length 2n for
    u and v of length n that overlaps neither, f is written into out[:n]
    and g into out[n:], by the same operations in the same order, so the
    values are bit-identical to the allocating form; the g half holds
    u^2 v as scratch. The two views are returned.
    """
    if out is None:
        uuv = u * u * v
        return params.alpha - u + uuv, params.beta - uuv
    n = len(u)
    f, g = out[:n], out[n:]
    np.multiply(u, u, out=g)
    g *= v
    np.subtract(params.alpha, u, out=f)
    f += g
    np.subtract(params.beta, g, out=g)
    return f, g


def reaction_jacobian(u, v):
    """Partial derivatives (f_u, f_v, g_u, g_v) of reaction_terms' (f, g).

    They are (2uv - 1, u^2, -2uv, -u^2); alpha and beta drop out.
    """
    uv2 = 2.0 * u * v
    uu = u * u
    return uv2 - 1.0, uu, -uv2, -uu


@dataclass(frozen=True)
class SteadyState:
    """The positive uniform steady state."""

    u_s: float
    v_s: float


def steady_state(params: KineticParams) -> SteadyState:
    """(u_s, v_s) = (alpha+beta, beta/(alpha+beta)^2); kills both kinetics."""
    s = params.alpha + params.beta
    if s <= 0.0:
        raise StabilityError("alpha + beta must be positive")
    return SteadyState(s, params.beta / (s * s))


def _det_diffusivity(d, form: str):
    """The eta^2 coefficient in the determinant's second factor: d, the
    matrix's (2,2) entry, for 'consistent'; the printed d + 1 for
    'paper-literal'. The sweep and the cleared curve polynomials share it."""
    return d if form == "consistent" else d + 1.0


def _trace_det(alpha, beta, gamma, d, eta_sq, form: str):
    """Trace and determinant of the linearization, broadcast over array arguments."""
    s = alpha + beta
    T = gamma * (beta - alpha - s**3) / s - (d + 1.0) * eta_sq
    diffusion = _det_diffusivity(d, form) * eta_sq
    D = (gamma * (beta - alpha) / s - eta_sq) * (-gamma * s * s - diffusion) \
        + 2.0 * gamma * gamma * beta * s
    return T, D


def trace_det(params: KineticParams, eta_sq: float, form: str = "consistent") -> tuple[float, float]:
    """Trace and determinant of the linearization at the steady state.

    form selects how the (2,2) entry's diffusion term enters the
    determinant: 'consistent' uses d eta^2 (the matrix entry),
    'paper-literal' uses (d+1) eta^2 (the printed expression). eta_sq may
    be an array of eigenvalues, giving arrays T and D of its shape.
    """
    if form not in FORMS:
        raise StabilityError(f"form must be one of {FORMS}, got {form!r}")
    if not np.all(eta_sq >= 0.0):
        raise StabilityError(f"eta_sq must be non-negative, got {eta_sq}")
    return _trace_det(params.alpha, params.beta, params.gamma, params.d, eta_sq, form)


def roots(T, D):
    """Growth rates sigma_{1,2} = (T +- sqrt(T^2 - 4D)) / 2, broadcast over arrays.

    A non-negative discriminant gives the real pair; otherwise (NaN
    included) sigma = T/2 +- i sqrt(4D - T^2)/2. Scalars give two complex
    numbers, arrays two complex arrays; sigma1 never has the smaller real part.
    """
    T, D = np.asarray(T, dtype=np.float64), np.asarray(D, dtype=np.float64)
    disc = np.asarray(T * T - 4.0 * D)
    cplx = ~(disc >= 0.0)  # a NaN discriminant takes the complex branch
    sq = np.sqrt(np.negative(disc, out=disc, where=cplx), out=disc)
    # the parts are written, not summed: T + 0j would turn T = -0.0 into +0.0
    sigma = np.empty((2,) + sq.shape, dtype=np.complex128)
    re, im = sigma.real, sigma.imag
    np.add(T, sq, out=re[0, ...])
    np.subtract(T, sq, out=re[1, ...])
    np.copyto(re, T, where=cplx)
    im[0, ...], im[1, ...] = sq, -sq
    np.copyto(im, 0.0, where=~cplx)
    re /= 2.0
    im /= 2.0
    if sq.ndim == 0:
        return complex(sigma[0]), complex(sigma[1])
    return sigma[0], sigma[1]


class StabilityLabel(str, Enum):
    STABLE_NODE = "StableNode"
    STABLE_SPIRAL = "StableSpiral"
    TURING = "TuringInstability"
    HOPF = "HopfInstability"
    TRANSCRITICAL_CURVE = "TranscriticalCurve"
    DISCRIMINANT_CURVE = "DiscriminantCurve"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification of one (params, eta^2) point."""

    trace: float
    determinant: float
    discriminant: float
    sigma1: complex
    sigma2: complex
    label: StabilityLabel


# integer codes of the labels in region maps and rasters
LABEL_CODES = {
    StabilityLabel.STABLE_NODE: 0,
    StabilityLabel.STABLE_SPIRAL: 1,
    StabilityLabel.TURING: 2,
    StabilityLabel.HOPF: 3,
    StabilityLabel.TRANSCRITICAL_CURVE: 4,
    StabilityLabel.DISCRIMINANT_CURVE: 5,
}
CODE_LABELS = {v: k for k, v in LABEL_CODES.items()}


def _label_codes(T, D) -> np.ndarray:
    """The sign table: label code of each (T, D) pair, broadcast over arrays.

    The partitioning curves have measure zero, so membership is decided
    within a band: T against tol = 1e-6 * max(1, |T|, sqrt(|D|)), and the
    discriminant, which has the dimensions of T^2, against tol * that max.
    """
    T, D = np.asarray(T), np.asarray(D)
    disc = T * T - 4.0 * D
    scale = np.maximum(1.0, np.maximum(np.abs(T), np.sqrt(np.abs(D))))
    tol = 1e-6 * scale
    band = tol * scale
    out = np.full(T.shape, LABEL_CODES[StabilityLabel.DISCRIMINANT_CURVE], dtype=np.int8)
    complex_pair = disc < -band
    real_pair = disc > band
    out[complex_pair & (T < -tol)] = LABEL_CODES[StabilityLabel.STABLE_SPIRAL]
    out[complex_pair & (T > tol)] = LABEL_CODES[StabilityLabel.HOPF]
    # on the trace-zero curve with complex roots; D > T^2/4 >= 0 holds
    out[complex_pair & (np.abs(T) <= tol)] = LABEL_CODES[StabilityLabel.TRANSCRITICAL_CURVE]
    node = (T < 0.0) & (D > 0.0)
    out[real_pair & node] = LABEL_CODES[StabilityLabel.STABLE_NODE]
    out[real_pair & ~node] = LABEL_CODES[StabilityLabel.TURING]
    return out


def _verdict(T: float, D: float, s1: complex, s2: complex, code) -> StabilityVerdict:
    return StabilityVerdict(T, D, T * T - 4.0 * D, s1, s2, CODE_LABELS[int(code)])


def classify_point(params: KineticParams, eta_sq: float,
                   form: str = "consistent") -> StabilityVerdict:
    """Classify the steady state for one eigenvalue eta^2 by the sign table (_label_codes)."""
    T, D = trace_det(params, eta_sq, form)
    return _verdict(T, D, *roots(T, D), _label_codes(T, D))


# distinct (l, k_max, a, rho) keys kept; a scan over (alpha, beta) repeats one
_MODE_EIGENVALUES_CACHED = 32


@functools.lru_cache(maxsize=_MODE_EIGENVALUES_CACHED, typed=True)
def _mode_eigenvalues(l: float, k_max: int, a: float, rho: float) -> np.ndarray:
    """eta^2 of the modes k = 0..k_max at order l on the annulus (a, a + rho), read-only.

    Errors are raised as by make_annulus and _eigenvalues; lru_cache keeps
    no exception, so a rejected input raises again on every call.
    """
    geom = make_annulus(a, a + rho)
    eta_sq = _eigenvalues(np.array(range(k_max + 1)), l, geom.a, geom.b)
    eta_sq.setflags(write=False)
    return eta_sq


@dataclass(frozen=True)
class MultimodeResult:
    """Most unstable verdict over modes k = 0..k_max at fixed order l."""

    selected_k: int
    verdict: StabilityVerdict


def classify_multimode(params: KineticParams, l: float, k_max: int, a: float,
                       rho: float, form: str = "consistent") -> MultimodeResult:
    """Select the fastest-growing mode k <= k_max and classify it.

    The selected mode is the one whose leading growth rate sigma1 has the
    largest real part, the lowest such k on a tie; a point is unstable if
    any admitted mode destabilizes it, and the winning mode is the pattern
    one expects to see first. Only its verdict is built; classify_point
    gives the verdict of any other mode.
    """
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 0):
        raise StabilityError(f"k_max must be a non-negative integer, got {k_max!r}")
    T, D = trace_det(params, _mode_eigenvalues(l, k_max, a, rho), form)
    s1, s2 = roots(T, D)
    k = int(np.argmax(s1.real))
    return MultimodeResult(k, _verdict(float(T[k]), float(D[k]), complex(s1[k]), complex(s2[k]),
                                       _label_codes(T[k], D[k])))


# ---------------------------------------------------------------------------
# thickness thresholds
# ---------------------------------------------------------------------------

def _thickness_bound(mode: ModeIndex, a: float, branch: str, gamma: float, d: float,
                     m: float = 1.0, s: float = 1.0) -> float:
    """rho = c order / (a eta_sq_star) - a, past which eta^2 stays below eta_sq_star.

    eta_sq_star = gamma m / ((d+1) s), the onset of temporal instability
    for m = s = 1. eta^2 = weight * order, and the printed supremum of the
    weighting on the branch is c / (a (a + rho)) (spectrum._SUPREMUM: c = 1
    for l > 0, 2 for l < 0); the bound solves c order / (a (a + rho)) =
    eta_sq_star. a, gamma and d must be positive and finite; a margin m
    that is not positive leaves no eta_sq_star and gives NaN.
    """
    for name, value in (("a", a), ("gamma", gamma), ("d", d)):
        if not (value > 0.0 and np.isfinite(value)):
            raise StabilityError(f"{name} must be positive and finite, got {value}")
    if not m > 0.0:
        return float("nan")
    eta_sq_star = gamma * m / ((d + 1.0) * s)
    # the order factor does not depend on the radii
    order = float(_closed_form(mode.k, mode.l, a, a)[1])
    return _SUPREMUM[branch] * order / (a * eta_sq_star) - a


@dataclass(frozen=True)
class HopfAdmissibility:
    """Two predicates for temporal (Hopf/transcritical) bifurcation.

    paper_threshold is the quoted thickness threshold, negative_l_bound's,
    and paper_admissible tests rho >= threshold. exact_admissible evaluates
    the operative inequality gamma > (d+1) eta^2(a, a+rho) with the true
    eigenvalue instead of its supremum bound. Because the quoted threshold
    uses a loose supremum, the two predicates can disagree near the
    boundary; both are reported.
    """

    paper_threshold: float
    paper_admissible: bool
    exact_admissible: bool


def hopf_admissibility(d: float, gamma: float, mode: ModeIndex, a: float,
                       rho: float) -> HopfAdmissibility:
    """Check thickness admissibility for temporal bifurcation, both ways."""
    threshold = negative_l_bound(d, gamma, mode, a).bound
    exact = gamma > (d + 1.0) * eigenvalue(mode, make_annulus(a, a + rho))
    return HopfAdmissibility(threshold, rho >= threshold, exact)


@dataclass(frozen=True)
class ThicknessBound:
    """A thickness bound with its feasibility flag (negative = no rho)."""

    bound: float
    feasible: bool


def turing_only_bound(d: float, gamma: float, mode: ModeIndex, a: float) -> ThicknessBound:
    """Thickness bound below which instability is restricted to Turing type.

    The positive-l supremum inverted at eta^2 = gamma/(d+1), the onset of
    temporal instability: rho = (d+1) order / (gamma a) - a. A negative
    bound means no thickness satisfies the condition; it is returned as-is
    with feasible=False.
    """
    value = _thickness_bound(mode, a, "positive-l", gamma, d)
    return ThicknessBound(value, value > 0.0)


def negative_l_bound(d: float, gamma: float, mode: ModeIndex, a: float) -> ThicknessBound:
    """turing_only_bound on the l < 0 branch, whose supremum is twice as large."""
    value = _thickness_bound(mode, a, "negative-l", gamma, d)
    return ThicknessBound(value, value > 0.0)


@dataclass(frozen=True)
class RepeatedRootThreshold:
    """Thickness threshold for a stable repeated root, with its restriction.

    rho_stable_below is the branch's supremum inverted at
    eta^2 = gamma m / ((d+1) s), with s = beta+alpha and m = beta-alpha-s^3.
    It only applies when m > 0 (restriction_ok); otherwise it is NaN.
    """

    rho_stable_below: float
    restriction_ok: bool


def repeated_root_thresholds(params: KineticParams, mode: ModeIndex, a: float,
                             branch: str) -> RepeatedRootThreshold:
    """Thickness threshold for a stable repeated root on the given branch."""
    if branch not in _SUPREMUM:
        raise StabilityError(f"branch must be 'negative-l' or 'positive-l', got {branch!r}")
    s = params.alpha + params.beta
    m = params.beta - params.alpha - s**3
    return RepeatedRootThreshold(
        _thickness_bound(mode, a, branch, params.gamma, params.d, m, s), m > 0.0)
