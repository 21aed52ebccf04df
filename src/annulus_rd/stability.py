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
so sigma1+sigma2 = T and sigma1*sigma2 = D.

Each thickness bound inverts the printed supremum of the eigenvalue's
thickness weighting: it is the rho at which that supremum of eta^2 reaches
a critical eigenvalue (_thickness_bound).
"""

from __future__ import annotations

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
            if not (getattr(self, name) > 0.0):
                raise StabilityError(f"{name} must be strictly positive, got {getattr(self, name)}")


def reaction_terms(params: KineticParams, u, v):
    """Kinetic right-hand sides (f, g) = (alpha - u + u^2 v, beta - u^2 v)."""
    uuv = u * u * v
    return params.alpha - u + uuv, params.beta - uuv


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


def _trace_det(alpha, beta, gamma, d, eta_sq, form: str):
    """Trace and determinant of the linearization, broadcast over array arguments."""
    s = alpha + beta
    T = gamma * (beta - alpha - s**3) / s - (d + 1.0) * eta_sq
    diffusion = d * eta_sq if form == "consistent" else (d + 1.0) * eta_sq
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


def roots(T: float, D: float) -> tuple[complex, complex]:
    """Growth rates sigma_{1,2} = (T +- sqrt(T^2 - 4D)) / 2."""
    disc = T * T - 4.0 * D
    if disc >= 0.0:
        sq = np.sqrt(disc)
        return complex((T + sq) / 2.0), complex((T - sq) / 2.0)
    sq = np.sqrt(-disc)
    return complex(T / 2.0, sq / 2.0), complex(T / 2.0, -sq / 2.0)


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


def _verdict(T: float, D: float, code) -> StabilityVerdict:
    s1, s2 = roots(T, D)
    return StabilityVerdict(T, D, T * T - 4.0 * D, s1, s2, CODE_LABELS[int(code)])


def classify_point(params: KineticParams, eta_sq: float,
                   form: str = "consistent") -> StabilityVerdict:
    """Classify the steady state for one eigenvalue eta^2 by the sign table (_label_codes)."""
    T, D = trace_det(params, eta_sq, form)
    return _verdict(T, D, _label_codes(T, D))


@dataclass(frozen=True)
class MultimodeResult:
    """Most unstable verdict over modes k = 0..k_max at fixed order l."""

    selected_k: int
    verdict: StabilityVerdict
    per_mode: tuple[tuple[int, StabilityVerdict], ...]


def classify_multimode(params: KineticParams, l: float, k_max: int, a: float,
                       rho: float, form: str = "consistent") -> MultimodeResult:
    """Classify each mode k <= k_max and select the fastest-growing one.

    The selected verdict is the one whose largest real part of sigma is
    maximal; a point is unstable if any admitted mode destabilizes it, and
    the winning mode is the pattern one expects to see first.
    """
    if k_max < 0:
        raise StabilityError(f"k_max must be non-negative, got {k_max}")
    geom = make_annulus(a, a + rho)
    ks = range(k_max + 1)
    T, D = trace_det(params, _eigenvalues(np.array(ks), l, geom.a, geom.b), form)
    entries = tuple((k, _verdict(float(t), float(dd), code))
                    for k, t, dd, code in zip(ks, T, D, _label_codes(T, D)))
    # first maximum wins ties, so the lowest such k is selected
    best = max(entries, key=lambda e: max(e[1].sigma1.real, e[1].sigma2.real))
    return MultimodeResult(best[0], best[1], entries)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

VERDICT_CSV_HEADER = "alpha,beta,gamma,d,k,l,eta_sq,T,D,re_sigma1,im_sigma1,label"


def verdict_csv_row(params: KineticParams, mode: ModeIndex, eta_sq: float,
                    verdict: StabilityVerdict) -> str:
    """One CSV row matching VERDICT_CSV_HEADER."""
    cells = [params.alpha, params.beta, params.gamma, params.d, mode.k, mode.l,
             eta_sq, verdict.trace, verdict.determinant,
             verdict.sigma1.real, verdict.sigma1.imag]
    text = ",".join(format(c, ".10g") for c in cells)
    return f"{text},{verdict.label.value}"
